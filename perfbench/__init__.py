"""Oracle-checked benchmark of the resumable KG job (see README.md)."""
