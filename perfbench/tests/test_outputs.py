"""Output checker: reference comparison, failed criteria, sweep statuses."""

import json

import numpy as np

import outputs
import run
import spans


def _trajectory():
    t = np.linspace(0.0, 1.0, 65)[:, None]
    x = np.linspace(-8.0, 8.0, 48)[None, :]
    return np.exp(-(x**2) / 8.0) * np.cos(t * (1.0 + 0.1 * x)) + 0j


def test_checker_accepts_rounding_and_flags_a_perturbed_trajectory():
    u = _trajectory()
    ref = outputs.summarize_trajectory(u)
    assert outputs.compare_trajectory(outputs.summarize_trajectory(u * (1 + 1e-13)), ref) == []
    bad = u.copy()
    bad[41, 17] += 1e-4  # a node the norm samples skip: only the projections see it
    problems = outputs.compare_trajectory(outputs.summarize_trajectory(bad), ref)
    assert problems and problems[0].startswith("projections_re")
    assert outputs.compare_trajectory(outputs.summarize_trajectory(u[:-1]), ref)


def test_checker_reads_the_csv_the_cli_writes(tmp_path):
    u = _trajectory()
    tt = np.repeat(np.linspace(0.0, 1.0, u.shape[0]), u.shape[1])
    xx = np.tile(np.linspace(-8.0, 8.0, u.shape[1]), u.shape[0])
    path = tmp_path / "trajectory.csv"
    with open(path, "w") as fh:
        fh.write("t,x,re_u,im_u\n")
        np.savetxt(fh, np.column_stack([tt, xx, u.real.ravel(), u.imag.ravel()]), fmt="%.17g", delimiter=",")
    assert np.array_equal(outputs.read_trajectory(path), u)


def test_checker_flags_a_failed_criterion():
    results = [
        {"index": i, "name": f"check {i}", "passed": True, "detail": "", "runtime": 0.1, "measured": {}}
        for i in range(1, 16)
    ]
    assert outputs.check_validate({"results": results, "total": 15, "passed": 15}) == []
    results[6]["passed"] = False
    problems = outputs.check_validate({"results": results, "total": 15, "passed": 14})
    assert problems == ["criterion 7 (check 7) failed: "]
    assert outputs.check_validate({"results": results[:3], "total": 3, "passed": 3})


def test_checker_flags_a_failed_rung_and_a_moved_value(tmp_path):
    header = "k,eps,h,coeff_width,cap,norm,association_error,sup_state,sup_velocity,sup_fractional_derivative,status"
    good = ["4,0.0625,1.6,3.2,16,11.6,0.0193,1.88,0.763,1.57,ok", "5,0.03125,1.7,3.4,29.4,20.6,0.0168,1.88,1.94,4.74,ok"]
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join([header] + good) + "\n")
    ref = outputs.summarize_sweep(path)
    assert outputs.compare_sweep(ref, ref) == []
    path.write_text("\n".join([header, good[0], "5,0.03125,1.7,3.4,29.4,,,,,,failed: gate"]) + "\n")
    problems = outputs.compare_sweep(outputs.summarize_sweep(path), ref)
    assert problems[0] == "rung k=5: status 'failed: gate'"
    path.write_text("\n".join([header, good[0], good[1].replace("20.6", "20.61")]) + "\n")
    assert outputs.compare_sweep(outputs.summarize_sweep(path), ref) == ["norm[1]: 20.609999999999999 vs reference 20.600000000000001 (tolerance 2.06e-07)"]


def test_digest_mismatch_fails_the_later_sample():
    results = [{"digest": "a", "problems": []}, {"digest": "b", "problems": []}, {"problems": ["exit"]}]
    run.mark_digest_mismatches(results)
    assert results[0]["problems"] == [] and results[1]["problems"] and results[2]["problems"] == ["exit"]


def test_per_layer_reports_every_benchmark_metric():
    tracer_metrics = spans.Tracer().layer_metrics()
    plain = {"wall_s": 2.0, "import_s": 0.2, "parse_s": 0.01, "criteria": {3: 1.25}}
    traced = {"wall_s": 2.5, "layers": tracer_metrics, "artifact_bytes": 10}
    metrics = run.per_layer([plain], [traced])
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert metrics["validation.c03_s"] == {"value": 1.25, "unit": "s"}
    assert metrics["trace.overhead_s"]["value"] == 0.5


def test_reference_covers_every_noise_seed():
    reference = json.loads((run.HERE / "reference.json").read_text())
    for name, (verb, config) in run.WORKLOADS.items():
        if config is not None:
            assert sorted(reference[name], key=int) == [str(s) for s in range(run.NOISE_SEEDS)]
