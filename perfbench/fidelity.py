"""Output checks: a digest of each job's simulated output, and its error
against the paper.

The digest covers the job's result tables plus the deterministic counters
of its metrics snapshot.  Simulated results depend only on the job and its
seed, so a change that only makes the simulator faster must leave every
digest unchanged; ``digests.json`` pins them for the default seed and for
one held-out seed.

``paper_err_pct`` compares simulated results with the values the paper
publishes (``repro.core.calibration``).  The model is checked against the
paper's numbers only, never against hardware.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, List, Optional

from repro.campaign.worker import tables_of
from repro.core import calibration as cal

#: snapshot counters whose values the simulation alone decides
DIGEST_PREFIXES = ("kernel.", "dmi.", "memory.", "storage.", "buffer.cache.")

VALIDATION_NOTE = (
    "paper_err_pct compares the twin with the paper's published numbers "
    "only; the model is not validated against hardware"
)


def output_digest(result, snapshot: Dict[str, float]) -> str:
    """SHA-256 over the result tables and the deterministic counters."""
    tables = [[t.title, t.columns, t.rows, t.notes] for t in tables_of(result)]
    counters = {k: v for k, v in snapshot.items() if k.startswith(DIGEST_PREFIXES)}
    blob = json.dumps([tables, counters], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _table3_pairs(table) -> List[tuple]:
    latency = dict(zip(table.column("Configuration"), table.column("Latency (ns)")))
    pairs = [(latency[label], paper) for label, paper in cal.TABLE3_LATENCIES_NS.items()]
    pairs.append((latency["centaur_function_matched"], cal.TABLE3_FUNCTION_MATCHED_NS))
    return pairs


def _fio_pairs(fig9, fig10) -> List[tuple]:
    iops = {row[0]: (row[1], row[2]) for row in fig9.rows}
    lat = {row[0]: (row[1], row[2]) for row in fig10.rows}
    pairs = []
    for store, base, paper in [
        ("mram_contutto", "nvram_pcie", cal.FIG9_10_MRAM_CT_VS_NVRAM_PCIE),
        ("mram_contutto", "mram_pcie", cal.FIG9_10_MRAM_CT_VS_MRAM_PCIE),
        ("nvdimm_contutto", "nvram_pcie", cal.FIG9_10_NVDIMM_CT_VS_NVRAM_PCIE),
    ]:
        measured = {
            # latency ratios are "x lower", IOPS ratios "x higher"
            "read_latency_x": lat[base][0] / lat[store][0],
            "write_latency_x": lat[base][1] / lat[store][1],
            "read_iops_x": iops[store][0] / iops[base][0],
            "write_iops_x": iops[store][1] / iops[base][1],
        }
        pairs += [(measured[key], value) for key, value in paper.items()]
    return pairs


#: Table 5 row label prefix -> calibration key
_TABLE5_KEYS = {"Memory copy": "memcopy", "Min/max": "minmax", "1024-pt FFT": "fft"}


def _table5_pairs(table) -> List[tuple]:
    pairs = []
    for row in table.rows:
        key = next(k for prefix, k in _TABLE5_KEYS.items() if row[0].startswith(prefix))
        # the harness renders throughput as text, e.g. "5.4 GB/s"
        measured = float(re.match(r"[0-9.]+", row[1]).group())
        pairs.append((measured, cal.TABLE5_ROWS[key][0]))
    return pairs


#: experiment -> (result -> [(measured, paper)]); fio returns two tables
_PAIRS = {
    "table3": _table3_pairs,
    "fio": lambda result: _fio_pairs(*result),
    "table5": _table5_pairs,
}


def paper_err_pct(experiment: str, result) -> Optional[float]:
    """Mean absolute relative error (%) of a job's results vs the paper,
    or None for an experiment the benchmark does not compare."""
    pairs_of = _PAIRS.get(experiment)
    if pairs_of is None:
        return None
    pairs = pairs_of(result)
    return 100.0 * sum(abs(m - p) / p for m, p in pairs) / len(pairs)
