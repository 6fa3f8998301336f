"""Tests of the benchmark itself: seeded inputs, known answers and tracing.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer


@pytest.fixture(scope="module")
def m():
    return run.load_ncdef()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(m, name, tmp_path):
    first = workloads.build(name, m, 11, tmp_path / "a")
    second = workloads.build(name, m, 11, tmp_path / "b")
    other = workloads.build(name, m, 12, tmp_path / "c")
    assert first.inputs_text.encode() == second.inputs_text.encode()
    assert [f.read_bytes() for f in first.files] == [f.read_bytes() for f in second.files]
    assert other.inputs_text != first.inputs_text


@pytest.mark.parametrize("seed", range(5))
def test_ideal_variants_round_trip_through_render_and_parse(m, seed):
    import random

    rng = random.Random(seed)
    for n in (1, 2):
        base = m.zoo.laufer_presentation(n, [0] * (2 * n))
        variants = workloads.ideal_variants(m, base, rng)
        assert len(variants) == 2
        for v in variants:
            assert v != base
            assert m.exprparse.presentation_parse(m.exprparse.render(v)) == v


def test_variant_files_hold_the_rendered_presentations(m, tmp_path):
    wl = workloads.build("dimension", m, 5, tmp_path / "a")
    assert wl.files
    for path in wl.files:
        p = m.exprparse.presentation_parse(path.read_text(encoding="utf-8"))
        assert m.exprparse.render(p) == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_fresh_seed_passes_every_known_answer(m, name, tmp_path):
    wl = workloads.build(name, m, 20261017, tmp_path / "a")
    res = run.run_pass(wl)
    assert res.failed == []
    assert [v.name for v in res.verdicts if not v.ok] == []
    assert any(v.certified for v in res.verdicts)


def test_a_certified_non_member_is_reported_wrong():
    class Result:
        status = "certified-zero"
        certificate = {((), 0, ()): 1}
        normal_form = 0

    verdicts = workloads._claim_verdicts("claims", 1, [Result(), Result()])
    assert [v.ok for v in verdicts] == [True, False]


def test_non_members_do_not_vanish_at_the_witness_point(m):
    import random

    p = m.zoo.karmazyn_contraction_presentation(3)
    point = workloads._karmazyn3_point(p)
    members, nonmembers = workloads._membership_claims(m, p, random.Random(1), point, 6)
    assert all(workloads._evaluate(f, point) == 0 for f in members)
    assert all(workloads._evaluate(f, point) != 0 for f in nonmembers)


def test_an_op_that_raises_is_counted_as_failed():
    def boom():
        raise RuntimeError("completion step limit exceeded")

    wl = workloads.Workload("t", [workloads.Op("boom", boom)], "", [])
    res = run.run_pass(wl)
    assert res.failed == ["boom"]
    assert res.verdicts == []


def _module_dicts():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "ncdef" or name.startswith("ncdef.")}


def test_tracer_patches_every_importing_module_and_restores(m):
    before = _module_dicts()
    mul = m.freealg.NcPoly.__dict__["__mul__"]
    tracer = Tracer()
    with tracer.installed():
        for mod, attr in ((m.zoo, "derive_check"), (m.cli, "quotient_report"),
                          (m.zoo, "quotient_report"), (m.ncgb, "find_division"),
                          (m.ncgb, "nc_reduce"), (m.ncgb, "word_mul"),
                          (m.freealg, "word_mul"), (m.cli, "mf_verify")):
            fn = getattr(mod, attr)
            assert fn is not before[mod.__name__][attr]
            assert fn.__wrapped__ is before[mod.__name__][attr]
        assert m.freealg.NcPoly.__dict__["__mul__"] is not mul
    after = _module_dicts()
    assert set(after) == set(before)
    for name, attrs in before.items():
        assert all(after[name][k] is v for k, v in attrs.items()), name
    assert m.freealg.NcPoly.__dict__["__mul__"] is mul


def test_traced_outputs_equal_untraced_and_spans_are_recorded(m, tmp_path):
    wl = workloads.build("certify", m, 3, tmp_path / "a")
    wl.ops = [op for op in wl.ops if not op.label.startswith(("karmazyn", "cli:"))]
    plain = run.run_pass(wl)
    tracer = Tracer()
    with tracer.installed():
        traced = run.run_pass(wl, tracer)
    assert traced.outputs == plain.outputs
    layers = tracer.layer_metrics(1)
    assert layers["ncgb.nc_complete.calls"] == 5
    assert layers["ncgb.derive_check.claims"] > 24
    assert layers["ncgb.expand_certificate.terms"] > 0
    assert layers["ncgb.find_division.calls"] > layers["ncgb.nc_reduce.calls"] > 0
    assert 0 < layers["ncgb.nc_complete.prov_s"]
    assert layers["commpoly.groebner.calls"] == 0


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.02)
    tot = tracer.span_totals()
    assert tot["outer"]["calls"] == tot["inner"]["calls"] == 1
    assert tot["outer"]["self_s"] == pytest.approx(
        tot["outer"]["total_s"] - tot["inner"]["total_s"])
    assert tot["inner"]["self_s"] == tot["inner"]["total_s"] >= 0.02


def test_run_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "tests"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "milnor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "{" not in out.stdout
