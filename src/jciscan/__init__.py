"""jciscan: exhaustive pairwise interaction screening via the normalized
three-way joint cumulant, plus the simulation harness and data formats
that exercise it.

Every public name is imported from its submodule on first use, so
``import jciscan`` (and the CLI's parser) loads neither numpy nor any
compute module.  ``jciscan.scan`` names the function, as
``from jciscan import scan`` does; ``importlib.import_module("jciscan.scan")``
gives the module.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

#: Public name -> the submodule that defines it ("errors" is the module).
_LAZY = {
    "errors": "errors",
    **dict.fromkeys(
        ("CenteredColumn", "PairStatistic", "center", "pair_score", "sample_k2", "sample_k3",
         "validate_c1"),
        "cumulants",
    ),
    **dict.fromkeys(
        ("GenotypeMatrix", "parse_csv", "parse_packed", "read_phenotype", "write_csv",
         "write_packed"),
        "dataio",
    ),
    **dict.fromkeys(
        ("CodeWorkspace", "PairTable", "ScanConfig", "ScanResult", "ScanStats", "Workspace",
         "all_scores", "merge_top_pairs", "pair_count", "pair_from_index", "pair_index",
         "precompute", "ranks_of_pairs", "scan", "select_by_threshold"),
        "scan",
    ),
    **dict.fromkeys(
        ("RankSummary", "ReplicateReport", "SimStudySpec", "gen_study1", "gen_study2",
         "gen_study3", "gen_study4", "gen_study5", "run_replications", "study_spec",
         "summarize"),
        "simulate",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == "errors" else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


class _Package(types.ModuleType):
    """The import system binds each loaded submodule as a package
    attribute; this keeps ``jciscan.scan`` the function when the
    ``jciscan.scan`` submodule loads, whichever code imports it first."""

    def __setattr__(self, name, value):
        if name == "scan" and isinstance(value, types.ModuleType):
            value = value.scan
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__all__ = sorted(_LAZY)
