"""jciscan: exhaustive pairwise interaction screening via the normalized
three-way joint cumulant, plus the simulation harness and data formats
that exercise it."""

from . import errors
from .cumulants import (
    CenteredColumn,
    PairStatistic,
    center,
    pair_score,
    sample_k2,
    sample_k3,
    validate_c1,
)
from .dataio import (
    GenotypeMatrix,
    parse_csv,
    parse_packed,
    read_phenotype,
    write_csv,
    write_packed,
)
from .scan import (
    CodeWorkspace,
    PairTable,
    ScanConfig,
    ScanResult,
    ScanStats,
    Workspace,
    all_scores,
    merge_top_pairs,
    pair_count,
    pair_from_index,
    pair_index,
    precompute,
    ranks_of_pairs,
    scan,
    select_by_threshold,
)

__version__ = "0.1.0"

#: The simulation harness's names, imported from :mod:`jciscan.simulate` on
#: first use: a command that runs no simulation does not load it.
_SIMULATE_NAMES = frozenset({
    "RankSummary",
    "ReplicateReport",
    "SimStudySpec",
    "gen_study1",
    "gen_study2",
    "gen_study3",
    "gen_study4",
    "gen_study5",
    "run_replications",
    "study_spec",
    "summarize",
})


def __getattr__(name: str):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SIMULATE_NAMES)

__all__ = [
    "CenteredColumn",
    "CodeWorkspace",
    "GenotypeMatrix",
    "PairStatistic",
    "PairTable",
    "RankSummary",
    "ReplicateReport",
    "ScanConfig",
    "ScanResult",
    "ScanStats",
    "SimStudySpec",
    "Workspace",
    "all_scores",
    "center",
    "errors",
    "gen_study1",
    "gen_study2",
    "gen_study3",
    "gen_study4",
    "gen_study5",
    "merge_top_pairs",
    "pair_count",
    "pair_from_index",
    "pair_index",
    "pair_score",
    "parse_csv",
    "parse_packed",
    "precompute",
    "ranks_of_pairs",
    "read_phenotype",
    "run_replications",
    "sample_k2",
    "sample_k3",
    "scan",
    "select_by_threshold",
    "study_spec",
    "summarize",
    "validate_c1",
    "write_csv",
    "write_packed",
]
