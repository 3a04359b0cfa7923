"""Deterministic HTML wrap/extract pair (stage E semantics).

The north-star invariant is "byte-identical extracted text per url vs
the reference extractor" (BASELINE.json input_hint). Our synthetic
corpus wraps ``text`` into ``html`` with ``wrap_html`` and the engine's
stage E inverts it with ``extract_text`` — a provable inverse, so the
invariant is testable exactly: paragraphs are the newline-separated
chunks of ``text``, and the sequential oracle extractor IS
``extract_text`` run row-by-row.
"""

from __future__ import annotations

_PRE = b"<html><head><title>"
_MID = b"</title></head><body><p>"
_SEP = b"</p><p>"
_POST = b"</p></body></html>"


def wrap_html(title: str, text: str) -> bytes:
    paragraphs = text.split("\n")
    body = _SEP.join(p.encode("utf-8") for p in paragraphs)
    return _PRE + title.encode("utf-8") + _MID + body + _POST


def extract_text(html: bytes) -> str:
    """Inverse of ``wrap_html``: recover the exact text bytes."""
    start = html.index(_MID) + len(_MID)
    end = html.rindex(_POST)
    body = html[start:end]
    return b"\n".join(body.split(_SEP)).decode("utf-8")


def extract_text_safe(html: bytes | None) -> str | None:
    """Extraction for dirty corpora: None for a null payload and for
    payloads that are not valid containers or not valid utf-8 (a 100 TB
    crawl always has them; one bad row must never fail a block)."""
    if html is None:
        return None
    try:
        return extract_text(html)
    except (ValueError, UnicodeDecodeError):
        return None
