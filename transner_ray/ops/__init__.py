"""Ray Data operators beside the KG pipeline: PageRank over its entity
graph (``pagerank``), the reference's CoNLL/WikiNER corpus tooling
(``corpus``), read sizing and source-keyed caches (``io``), and the
corpus-curation families the KG job does not run: relational, text
analysis, deduplication, training-data curation, packing, BPE,
sketches, indexing, quantiles and multimodal column plumbing."""
