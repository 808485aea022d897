"""Per-trial records and their persistent forms.

CSV output is byte-identical for a fixed (config, seed) pair no matter
how many worker threads ran the trials: records are keyed and sorted by
trial index, floats are serialized via repr (shortest round-trip), and
no timing is recorded -- a timing column would break reproducibility of
the artifact files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

CSV_SCHEMA_LINE = "# perturblab-records schema=1"
CSV_HEADER = "trial,seed,n,sigma_max,sigma_min,kappa,singular,tail_hit"


def kappa(sigma_max: float, sigma_min: float, singular: bool) -> float:
    """sigma_max / sigma_min; +inf when singular or sigma_min = 0.  The one
    condition-number rule: `SingularSpectrum.kappa` and `ExperimentRecord.kappa`
    return it, and with sigma_max = 1 it is the inverse norm 1 / sigma_min.
    `singular` is the spectrum's verdict (under discrete noise exactly
    det = 0, even at sigma_min > 0)."""
    return math.inf if singular or sigma_min == 0.0 else sigma_max / sigma_min


@dataclass(frozen=True, slots=True)
class ExperimentRecord:
    trial: int
    seed: int
    n: int
    sigma_max: float
    sigma_min: float
    singular: bool
    tail_hit: bool

    @property
    def kappa(self) -> float:
        """`kappa` of the record's sigma and the verdict it copies."""
        return kappa(self.sigma_max, self.sigma_min, self.singular)


def format_records_csv(records: Sequence[ExperimentRecord]) -> str:
    lines = [CSV_SCHEMA_LINE, CSV_HEADER]
    for r in sorted(records, key=lambda r: (r.n, r.trial)):
        lines.append(
            f"{r.trial},{r.seed},{r.n},{float(r.sigma_max)!r},{float(r.sigma_min)!r},"
            f"{float(r.kappa)!r},{int(r.singular)},{int(r.tail_hit)}"
        )
    return "\n".join(lines) + "\n"


def write_records_csv(path: str, records: Sequence[ExperimentRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_records_csv(records))


def format_summary_json(summary: dict) -> str:
    """Sorted, indented JSON; +-inf anywhere in the summary is written as
    "inf" / "-inf" (an exactly singular draw has kappa = inf), NaN is refused."""
    return json.dumps(_json_safe(summary), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_summary_json(path: str, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_summary_json(summary))


def json_safe_float(x: float) -> float | str:
    """JSON has no inf; encode it as a string marker."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return json_safe_float(value) if isinstance(value, float) else value


def run_trials(fn: Callable[[int], object], count: int, threads: int) -> list:
    """Run fn(0..count-1), optionally on a thread pool.

    The experiments call it once per size with fn over chunks of
    consecutive trials (`experiments._svd_trials`), so a call here is a chunk
    and one pool task sweeps a whole stack.  Results come back ordered by
    index, so aggregation does not depend on the worker count; each fn
    call must derive its seeds from its index alone.  One call, or none,
    runs inline whatever `threads` says: a pool would only add a thread.
    """
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    from concurrent.futures import ThreadPoolExecutor  # only pooled runs pay for loading it

    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(count)))
