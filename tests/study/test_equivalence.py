"""Equivalence suite: legacy figure/table output == study/query output, byte for byte.

The pinned reference implementations below are verbatim copies of the
hand-assembled loops the analysis layer shipped before the study API
(its ``_assemble_series`` and per-figure envelope loops), held against
each figure's :meth:`FigureDef.series` query.
Every assertion serializes both sides *without* key sorting, so key
insertion order — which the legacy loops fixed via scaffold + envelope
order — is part of the contract, not just the values.

The generic pivot equivalence at the bottom runs across the whole workload
registry, so workloads the figures do not cover (spmv, stencil,
batched-gemm) are held to the same standard.
"""

import json

import pytest

from repro.analysis.tables import render_table1, render_table2, render_table3
from repro.core.gemm.registry import paper_implementation_keys
from repro.experiments import Session, load_envelopes, save_envelopes
from repro.study import ResultFrame, get_figure, get_table
from repro.workloads import get_workload, workload_kinds

from tests.conftest import figure_series

CHIPS = ("M1", "M4")


def stamp(data) -> str:
    """Byte-level identity *including* dict insertion order (no sorting)."""
    return json.dumps(data, default=str)


# ---------------------------------------------------------------------------
# Pinned reference assembly (pre-study analysis layer, copied verbatim)
# ---------------------------------------------------------------------------
def _legacy_series_scaffold(chips, impl_keys):
    if chips is None:
        return {}
    keys = tuple(impl_keys) if impl_keys is not None else paper_implementation_keys()
    return {chip: {key: {} for key in keys} for chip in chips}


def _legacy_assemble_series(envelopes, value, kind, chips, impl_keys):
    out = _legacy_series_scaffold(chips, impl_keys)
    for env in envelopes:
        if env.kind != kind:
            continue
        if chips is not None and env.spec.chip not in chips:
            continue
        spec = env.spec
        out.setdefault(spec.chip, {}).setdefault(spec.impl_key, {})[spec.n] = value(
            env.result
        )
    return out


def _legacy_figure1(envelopes, chips=None):
    out = {}
    for env in envelopes:
        if env.kind != "stream":
            continue
        if chips is not None and env.spec.chip not in chips:
            continue
        result = env.result
        entry = out.setdefault(
            env.spec.chip, {"theoretical": result.theoretical_gbs}
        )
        entry[result.target] = {
            k: float(r.max_gbs) for k, r in result.kernels.items()
        }
    if chips is not None:
        return {chip: out[chip] for chip in chips if chip in out}
    return out


LEGACY_BUILDERS = {
    "figure1": _legacy_figure1,
    "figure2": lambda envs, chips=None: _legacy_assemble_series(
        envs, lambda r: r.best_gflops, "gemm", chips, None
    ),
    "figure3": lambda envs, chips=None: _legacy_assemble_series(
        envs, lambda r: r.mean_combined_mw, "powered-gemm", chips, None
    ),
    "figure4": lambda envs, chips=None: _legacy_assemble_series(
        envs, lambda r: r.efficiency_gflops_per_w, "powered-gemm", chips, None
    ),
}

def from_envelopes(name, envelopes, chips=None):
    """Figure ``name``'s query over an envelope collection."""
    return get_figure(name).series(
        ResultFrame.from_envelopes(envelopes), chips=chips
    )


FIGURE_AXES = {
    "figure1": dict(n_elements=1 << 14),
    "figure2": dict(sizes=(32, 1024, 16384), repeats=2),
    "figure3": dict(sizes=(2048, 16384), repeats=1),
    "figure4": dict(sizes=(2048, 16384), repeats=1),
}


@pytest.fixture(scope="module")
def figure_runs():
    """Each figure run once on its own fast session: (series, envelopes).

    Separate sessions keep each figure's envelope set clean — figures 3
    and 4 share the powered-GEMM grid and would otherwise deduplicate
    through the session cache.
    """
    runs = {}
    for name, axes in FIGURE_AXES.items():
        session = Session(numerics="model-only")
        series = figure_series(name, CHIPS, session, **axes)
        runs[name] = (series, session.cached_envelopes())
    return runs


@pytest.mark.parametrize("name", list(LEGACY_BUILDERS))
class TestFigureEquivalence:
    def test_live_series_matches_legacy_assembly(self, figure_runs, name):
        series, envelopes = figure_runs[name]
        # the live series scaffolds with the requested chips; the pinned
        # reference does the same when handed them explicitly.
        if name == "figure1":
            reference = LEGACY_BUILDERS[name](envelopes, chips=CHIPS)
        else:
            reference = _legacy_assemble_series(
                envelopes,
                {
                    "figure2": lambda r: r.best_gflops,
                    "figure3": lambda r: r.mean_combined_mw,
                    "figure4": lambda r: r.efficiency_gflops_per_w,
                }[name],
                get_figure(name).kind,
                CHIPS,
                None,
            )
        assert stamp(series) == stamp(reference)

    def test_from_envelopes_matches_legacy_assembly(self, figure_runs, name):
        _, envelopes = figure_runs[name]
        for chips in (None, CHIPS, ("M4",), ("M4", "M1")):
            new = from_envelopes(name, envelopes, chips=chips)
            old = LEGACY_BUILDERS[name](envelopes, chips=chips)
            assert stamp(new) == stamp(old), chips

    def test_cached_envelopes_query_matches_the_live_series(
        self, figure_runs, name
    ):
        # what ``--out`` saves is the session's cache; the query over it
        # must give the live run's series, key order included
        series, envelopes = figure_runs[name]
        frame = ResultFrame.from_envelopes(envelopes)
        queried = get_figure(name).series(frame, chips=CHIPS)
        assert stamp(queried) == stamp(series)

    def test_store_round_trip_is_byte_identical(
        self, figure_runs, name, tmp_path
    ):
        series, envelopes = figure_runs[name]
        save_envelopes(tmp_path / name, envelopes)
        loaded = load_envelopes(tmp_path / name)
        reloaded = from_envelopes(name, loaded, chips=CHIPS)
        # Same contract as the legacy loops: byte-identical to the pinned
        # assembly over the *loaded* envelope order, and value-identical to
        # the live series (stores sort by path, so leaf insertion order may
        # legitimately differ — exactly as before the study API).
        assert stamp(reloaded) == stamp(LEGACY_BUILDERS[name](loaded, chips=CHIPS))
        assert json.dumps(reloaded, sort_keys=True, default=str) == json.dumps(
            series, sort_keys=True, default=str
        )


class TestTableEquivalence:
    def test_tables_match_their_study_defs(self):
        assert render_table1() == get_table("table1").render()
        assert render_table2() == get_table("table2").render()
        assert render_table3() == get_table("table3").render()


@pytest.mark.parametrize("kind", workload_kinds())
class TestRegistryPivotEquivalence:
    """The generic pivot reproduces a hand loop for every registered workload."""

    def test_variant_size_pivot_matches_hand_assembly(self, kind):
        workload = get_workload(kind)
        session = Session(numerics="model-only")
        envelopes = session.run_batch([workload.sample_spec()])
        metric = next(iter(workload.metrics))
        extract = workload.metrics[metric]

        reference: dict = {}
        for env in envelopes:
            spec, result = env.spec, env.result
            variant = str(
                getattr(spec, "impl_key", "") or getattr(spec, "target", "")
            )
            size = int(
                getattr(spec, "n", None) or getattr(spec, "n_elements", None) or 0
            )
            value = extract(spec, result)
            if value is None:
                continue
            reference.setdefault(spec.chip, {}).setdefault(variant, {})[
                size
            ] = value

        frame = ResultFrame.from_envelopes(envelopes)
        pivot = frame.pivot(("chip", "variant", "size"), values=metric)
        assert stamp(pivot) == stamp(reference)
