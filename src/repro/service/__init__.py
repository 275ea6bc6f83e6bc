"""Run repository and read-only dashboard: ``repro db`` / ``repro serve``.

The package exports the repository, the record readers and ``backfill``.
The HTTP app lives in :mod:`repro.service.server` and is imported from
there, so code that only reads records (``repro.profiling``) never loads
``http.server``.
"""

from .ingest import backfill
from .records import (
    RUN_RECORD_SCHEMA,
    SIMRATE_SCHEMA,
    classify_document,
    content_key,
    load_bench_doc,
    normalize_simrate_record,
)
from .repository import DB_ENV_VAR, RunRepository, default_db_path

__all__ = [
    "RUN_RECORD_SCHEMA",
    "SIMRATE_SCHEMA",
    "classify_document",
    "content_key",
    "load_bench_doc",
    "normalize_simrate_record",
    "DB_ENV_VAR",
    "RunRepository",
    "default_db_path",
    "backfill",
]
