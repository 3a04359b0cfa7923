"""transner_ray — a Ray-Data-native knowledge-graph-construction engine.

A from-scratch re-expression of the query/data-processing capabilities of
the reference NER service (``/root/reference``, fedasaro62/transner) as
``ray.data.Dataset`` pipelines: zero-copy Arrow ``map_batches`` stages,
actor pools for stateful stages, groupby/sort for the wide steps.

Layout:
    schemas       explicit pyarrow schemas for every stage boundary
    textops       frozen per-row semantics mirrored from the reference
                  (preprocess / offset adjust / BIO decode / regex /
                  gazetteers / overlap) — shared by oracle AND engine
    gazetteers    small broadcast lookup tables (cities, religions, names)
    tagger        Tagger interface: RuleTagger (deterministic, CI) and
                  BertTagger (actor-pool GPU stage; stub without torch)
    synth         deterministic synthetic `pages` corpus generator
    oracle        sequential pure-Python end-to-end reference oracle
    stages/       Ray Data stages: extract, split, ner, decode, triples,
                  link, canonicalize, graph
    pipelines/    stage composition + checkpoint/manifest lifecycle
    ops/          PageRank over the KG's entity graph, CoNLL/WikiNER
                  corpus tooling, /tmp caches, and corpus-curation
                  operators (relational, dedup, textstats, multimodal, ...)
    state/        checkpoint manifests + resume planner
"""

__version__ = "0.1.0"
