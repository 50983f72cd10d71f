"""The pg2 command line: outputs, determinism, and exit codes."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predgap as pg
from predgap.cli import format_value, main, report_to_json
from predgap.errors import NumericDomainError, exit_code_for

from support import canonical_ensemble, leaf


@pytest.fixture
def workdir(tmp_path):
    """A canonical depth-1 model (d=2) and a small data file."""
    model = tmp_path / "model.json"
    pg.save_ensemble(canonical_ensemble(num_features=2), model)
    data = tmp_path / "data.csv"
    data.write_text("a,b\n-1.0,0.5\n0.5,-0.3\n1.5,2.0\n-0.2,0.1\n")
    return tmp_path


def _model_arg(workdir):
    return ["--model", str(workdir / "model.json"), "--data", str(workdir / "data.csv")]


def test_format_value():
    assert format_value(0.15865525393145707) == "0.158655254"
    assert format_value(0.0) == "0.000000000"
    assert format_value(0.5) == "0.500000000"
    assert format_value(2.0) == "2.00000000"


def test_pg2_exact_canonical(workdir, capsys):
    rc = main(
        ["pg2", *_model_arg(workdir), "--point-index", "0", "--features", "0",
         "--sigma", "1.0", "--method", "exact"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "0.158655254\n"


def test_pg2_empty_feature_set(workdir, capsys):
    rc = main(
        ["pg2", *_model_arg(workdir), "--point-index", "0", "--features", "",
         "--sigma", "1.0"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "0.000000000\n"


def test_pg2_mc_deterministic(workdir, capsys):
    argv = ["pg2", *_model_arg(workdir), "--point-index", "0", "--features", "0,1",
            "--sigma", "0.5", "--method", "mc", "--iterations", "2000", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_pg2_dist_config(workdir, capsys):
    config = workdir / "dist.json"
    config.write_text(json.dumps({"kind": "discrete", "points": [[-1.0, 0.5], [2.0, 0.5]]}))
    rc = main(
        ["pg2", *_model_arg(workdir), "--point-index", "0", "--features", "0",
         "--dist-config", str(config)]
    )
    assert rc == 0
    assert capsys.readouterr().out == "0.500000000\n"


def test_rank_greedy_single_feature_model(workdir, capsys):
    rc = main(["rank", *_model_arg(workdir), "--sigma", "1.0"])
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 4
    assert all(row.startswith("0,") for row in rows)  # only feature 0 is used


def test_rank_from_attribution(workdir, capsys):
    phi = workdir / "phi.csv"
    phi.write_text("0.1,-0.5\n" * 4)
    rc = main(
        ["rank", *_model_arg(workdir), "--method", "from-attribution",
         "--attributions", str(phi)]
    )
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["1,0"] * 4


def test_rank_from_attribution_three_features(tmp_path, capsys):
    model = tmp_path / "m3.json"
    pg.save_ensemble(canonical_ensemble(num_features=3), model)
    data = tmp_path / "d3.csv"
    data.write_text("a,b,c\n0.0,0.0,0.0\n")
    phi = tmp_path / "phi.csv"
    phi.write_text("0.1,-0.5,0.2\n")
    rc = main(
        ["rank", "--model", str(model), "--data", str(data),
         "--method", "from-attribution", "--attributions", str(phi)]
    )
    assert rc == 0
    assert capsys.readouterr().out == "1,2,0\n"


def test_exclude_columns_flag(tmp_path, capsys):
    model = tmp_path / "m.json"
    pg.save_ensemble(canonical_ensemble(num_features=1), model)
    data = tmp_path / "d.csv"
    data.write_text("color,x\nred,-1.0\nblue,0.5\n")
    rc = main(
        ["pg2", "--model", str(model), "--data", str(data), "--exclude-columns", "color",
         "--point-index", "0", "--features", "0", "--sigma", "1.0"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "0.158655254\n"


def test_rank_single_feature_dataset(tmp_path, capsys):
    model = tmp_path / "m.json"
    pg.save_ensemble(canonical_ensemble(num_features=1), model)
    data = tmp_path / "d.csv"
    data.write_text("x\n0.5\n-0.5\n")
    rc = main(["rank", "--model", str(model), "--data", str(data), "--sigma", "1.0"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["0", "0"]


def test_benchmark_report_and_consistency(workdir):
    out = workdir / "report.json"
    rc = main(
        ["benchmark", *_model_arg(workdir), "--sigmas", "0.3",
         "--iteration-grid", "100,10000", "--pairs", "6", "--seed", "5",
         "--workers", "1", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    nmae_at = {
        (e["method"], e["iterations"]): e["nmae"] for e in report["entries"]
    }
    assert nmae_at[("mc", 10000)] < nmae_at[("mc", 100)]
    assert all(e["pairs"] == 6 for e in report["entries"])
    # parse -> serialize gives back the identical bytes
    assert report_to_json(report) == out.read_text()


def test_benchmark_identical_invocations_byte_identical(workdir):
    args = ["benchmark", *_model_arg(workdir), "--sigmas", "0.5",
            "--iteration-grid", "100,500", "--pairs", "4", "--seed", "3",
            "--workers", "1"]
    out1, out2 = workdir / "r1.json", workdir / "r2.json"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_benchmark_csv_output(workdir):
    out = workdir / "report.json"
    csv_out = workdir / "plot.csv"
    rc = main(
        ["benchmark", *_model_arg(workdir), "--sigmas", "0.3",
         "--iteration-grid", "100", "--pairs", "2", "--seed", "1",
         "--workers", "1", "--out", str(out), "--csv-out", str(csv_out)]
    )
    assert rc == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "method,iterations,sigma,nmae"
    assert len(lines) == 3  # mc and qmc at one grid point


def test_benchmark_timing_fields(workdir):
    out = workdir / "timed.json"
    rc = main(
        ["benchmark", *_model_arg(workdir), "--sigmas", "0.3",
         "--iteration-grid", "100", "--pairs", "2", "--seed", "1",
         "--workers", "1", "--timing", "--out", str(out)]
    )
    assert rc == 0
    entry = json.loads(out.read_text())["entries"][0]
    assert entry["wall_time_exact"] > 0.0
    assert entry["wall_time_sampler"] > 0.0


def test_benchmark_excludes_all_zero_truth_batch(workdir, capsys):
    # forcing empty feature sets makes every exact value zero
    out = workdir / "degenerate.json"
    rc = main(
        ["benchmark", *_model_arg(workdir), "--sigmas", "0.3",
         "--iteration-grid", "100", "--pairs", "1", "--seed", "1",
         "--sizes", "0", "--workers", "1", "--out", str(out)]
    )
    assert rc == 0
    assert json.loads(out.read_text())["entries"] == []
    assert "skipping" in capsys.readouterr().err


def test_benchmark_pool_has_at_most_one_worker_per_pair(workdir, monkeypatch):
    import predgap.cli as cli_mod

    sizes = []

    class InlinePool:
        """Records its size and runs every task in this process."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

        def shutdown(self):
            pass

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", InlinePool)
    args = ["benchmark", *_model_arg(workdir), "--sigmas", "0.3", "--iteration-grid", "100",
            "--out", str(workdir / "report.json")]
    for pairs, workers in [(1, 64), (3, 2), (2, 5)]:
        assert main([*args, "--pairs", str(pairs), "--workers", str(workers)]) == 0
    # one pair runs inline; otherwise one worker per pair at most
    assert sizes == [2, 2]


def test_benchmark_repetitions_average_mc_only(workdir):
    args = ["benchmark", *_model_arg(workdir), "--sigmas", "0.3", "--iteration-grid", "50",
            "--pairs", "4", "--seed", "2"]

    def run(repetitions, workers):
        out = workdir / f"r{repetitions}w{workers}.json"
        assert main([*args, "--repetitions", str(repetitions), "--workers", str(workers),
                     "--out", str(out)]) == 0
        return out.read_bytes()

    once = json.loads(run(1, 1))["entries"]
    thrice = json.loads(run(3, 1))["entries"]
    nmae_of = {e["method"]: e["nmae"] for e in once}
    averaged = {e["method"]: e["nmae"] for e in thrice}
    # MC averages three independently seeded runs; QMC is deterministic and runs once
    assert averaged["mc"] != nmae_of["mc"]
    assert averaged["qmc"] == nmae_of["qmc"]
    assert run(3, 3) == run(3, 1)


def test_benchmark_inline_calls_the_module_globals(monkeypatch):
    """perfbench traces `pg2 benchmark --workers 1` by rebinding these three cli
    globals and expects their spans under cli.run_benchmark in the same process;
    the inline path must also leave no payload behind, even when a task raises."""
    import predgap.cli as cli_mod

    calls = {}
    for name in ("pg2_exact", "pg2_sampled", "nmae"):
        def counted(*a, _real=getattr(cli_mod, name), _name=name, **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*a, **kw)

        monkeypatch.setattr(cli_mod, name, counted)
    ens = canonical_ensemble(num_features=2)
    data = pg.Dataset(values=[[-1.0, 0.5], [0.5, -0.3]], feature_names=("a", "b"))
    run = dict(sigmas=[0.3], iteration_grid=[10], pairs=3, seed=1, workers=1)
    report = cli_mod.run_benchmark(ens, data, **run)
    assert [e["method"] for e in report["entries"]] == ["mc", "qmc"]
    assert calls == {"pg2_exact": 3, "pg2_sampled": 6, "nmae": 2}
    assert cli_mod._BENCH is None
    with pytest.raises(pg.ValidationError):
        cli_mod.run_benchmark(ens, data, methods=("zz",), **run)
    assert cli_mod._BENCH is None


def test_eval_pgi2_matches_library(workdir, capsys):
    rc = main(
        ["eval", *_model_arg(workdir), "--method", "greedy-pg2", "--sigma-rank", "1.0",
         "--metric", "pgi2", "--sigma-metric", "1.0"]
    )
    assert rc == 0
    printed = float(capsys.readouterr().out)
    ens = canonical_ensemble(num_features=2)
    data, _ = pg.load_csv(workdir / "data.csv")
    spec = pg.PerturbationSpec.gaussian(1.0, 2)
    rankings = [
        pg.greedy_pg2_ranking(ens, data.instance(i), spec)
        for i in range(data.num_instances)
    ]
    expected = pg.mean_pgi2(ens, data, rankings, spec)
    assert printed == pytest.approx(expected, rel=1e-8)


def test_eval_constant_model_zero(tmp_path, capsys):
    model = tmp_path / "const.json"
    pg.save_ensemble(
        pg.TreeEnsemble(trees=(pg.Tree(leaf(2.0)),), num_features=1), model
    )
    data = tmp_path / "d.csv"
    data.write_text("x\n1.0\n2.0\n")
    for metric_args in (
        ["--metric", "pgi2", "--sigma-metric", "0.5"],
        ["--metric", "randomize-rmse", "--k", "1", "--samples", "8", "--seed", "1"],
    ):
        rc = main(
            ["eval", "--model", str(model), "--data", str(data),
             "--method", "greedy-pg2", "--sigma-rank", "0.5", *metric_args]
        )
        assert rc == 0
        assert capsys.readouterr().out == "0.000000000\n"


def test_eval_randomize_rmse_k0(workdir, capsys):
    rc = main(
        ["eval", *_model_arg(workdir), "--method", "greedy-pg2", "--sigma-rank", "1.0",
         "--metric", "randomize-rmse", "--k", "0", "--seed", "2"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "0.000000000\n"


def test_eval_rankings_file(workdir, capsys):
    rankings = workdir / "rankings.csv"
    rankings.write_text("0,1\n1,0\n0,1\n1,0\n")
    rc = main(
        ["eval", *_model_arg(workdir), "--rankings", str(rankings),
         "--metric", "pgi2", "--sigma-metric", "1.0"]
    )
    assert rc == 0
    assert float(capsys.readouterr().out) > 0.0


def test_convert_model(tmp_path, capsys):
    dump = tmp_path / "dump.json"
    dump.write_text(
        json.dumps(
            [
                {
                    "nodeid": 0, "split": "f0", "split_condition": 0.0,
                    "yes": 1, "no": 2, "missing": 1,
                    "children": [
                        {"nodeid": 1, "leaf": 0.0},
                        {"nodeid": 2, "leaf": 1.0},
                    ],
                }
            ]
        )
    )
    out = tmp_path / "canonical.json"
    rc = main(["convert-model", "--input", str(dump), "--output", str(out)])
    assert rc == 0
    ens = pg.load_ensemble(out)
    assert ens.predict([-1.0]) == 0.0 and ens.predict([0.0]) == 1.0


def test_exit_code_validation_error(tmp_path, capsys):
    rc = main(
        ["pg2", "--model", str(tmp_path / "missing.json"), "--data", str(tmp_path / "x.csv"),
         "--point-index", "0", "--sigma", "1.0"]
    )
    assert rc == 3
    assert "error" in capsys.readouterr().err


_HUGE = "1" + "0" * 400  # an integer literal beyond the float range
_DUMP = (
    '[{"nodeid": 0, "split": "%s", "split_condition": %s, "yes": %s, "no": %s,'
    ' "children": [{"nodeid": %s, "leaf": 0.0}, {"nodeid": 2, "leaf": 1.0}]}]'
)
_PG2 = ["pg2", "--point-index", "0", "--features", "0", "--sigma", "1.0"]
_CONVERT = ["convert-model", "--input", "{path}", "--output", "{path}.canonical"]
_DIST = ["pg2", "--point-index", "0", "--features", "0", "--dist-config", "{path}"]
_RANKINGS = ["eval", "--rankings", "{path}", "--metric", "pgi2", "--sigma-metric", "1.0"]
_ATTRIBUTIONS = ["rank", "--method", "from-attribution", "--attributions", "{path}"]
_BENCH = ["benchmark", "--pairs", "2", "--sigmas", "1.0", "--iteration-grid", "10",
          "--workers", "1"]
_LONG_INT = "1" + "0" * 5000  # past the integer string conversion limit
_DEEP = "[" * 5000 + "]" * 5000  # past the JSON decoder's recursion limit
_NOT_UTF8 = b"\xff\xfe{}"
_NO_DIR = "{path}.missing/out"  # inside a directory that does not exist
_LABELS = ["eval", "--label-column", "y", "--metric", "randomize-rmse", "--rmse-against",
           "labels", "--method", "greedy-pg2", "--sigma-rank", "1.0", "--k", "1"]


@pytest.mark.parametrize(
    "name, content, argv",
    [
        ("rankings.csv", "0,1\n1,x\n0,1\n1,0\n",
         ["eval", "--rankings", "{path}", "--metric", "pgi2", "--sigma-metric", "1.0"]),
        ("dist.json", '{"kind": "gaussian"}',
         ["pg2", "--point-index", "0", "--features", "0", "--dist-config", "{path}"]),
        ("dist.json", '{"kind": "uniform"}',
         ["pg2", "--point-index", "0", "--features", "0", "--dist-config", "{path}"]),
        ("dist.json", '{"kind": "gaussian", "sigma": "wide"}',
         ["pg2", "--point-index", "0", "--features", "0", "--dist-config", "{path}"]),
        ("dist.json", '{"kind": "discrete", "points": [[1.0]]}',
         ["pg2", "--point-index", "0", "--features", "0", "--dist-config", "{path}"]),
        ("model.json", '{"num_features": 2, "trees": [{"value": %s}]}' % _HUGE, _PG2),
        ("model.json", '{"num_features": 2, "trees": [{"value": 1%s}]}' % ("0" * 5000), _PG2),
        ("dump.json", '[{"nodeid": 0, "leaf": %s}]' % _HUGE, _CONVERT),
        ("dump.json", _DUMP % ("f0", _HUGE, 1, 2, 1), _CONVERT),
        ("dump.json", _DUMP % ("f0", 0.5, 1, 2, [1]), _CONVERT),
        ("dump.json", _DUMP % ("f0", 0.5, [1], 2, 1), _CONVERT),
        ("dump.json", _DUMP % ("f0", 0.5, 1, [2], 1), _CONVERT),
        ("dump.json", _DUMP % ("f\\u00b2", 0.5, 1, 2, 1), _CONVERT),
        ("model.json", _NOT_UTF8, _PG2),
        ("data.csv", b"a,b\n\xff,1\n", _PG2),
        ("dist.json", _NOT_UTF8, _DIST),
        ("rankings.csv", b"0,1\n\xff\n", _RANKINGS),
        ("attributions.csv", b"0.1,\xff\n", _ATTRIBUTIONS),
        ("dump.json", _NOT_UTF8, _CONVERT),
        ("dist.json", '{"kind": "gaussian", "sigma": %s}' % _LONG_INT, _DIST),
        ("dist.json", _DEEP, _DIST),
        ("attributions.json", "[[%s]]" % _LONG_INT, _ATTRIBUTIONS),
        ("attributions.json", _DEEP, _ATTRIBUTIONS),
        ("data.csv", "a,b\n%s,1\n" % ("1" * 200_000), _PG2),
        ("unused", "", ["rank", "--sigma", "1.0", "--out", _NO_DIR]),
        ("unused", "", [*_BENCH, "--out", _NO_DIR]),
        ("unused", "", [*_BENCH, "--csv-out", _NO_DIR]),
        ("dump.json", _DUMP % ("f0", 0.5, 1, 2, 1),
         ["convert-model", "--input", "{path}", "--output", _NO_DIR]),
        ("data.csv", "a,b,y\n-1.0,0.5,nan\n0.5,-0.3,1.0\n", _LABELS),
        ("data.csv", "a,b,y\n-1.0,0.5,1.0\n0.5,-0.3,inf\n", _LABELS),
        ("data.csv", "a,b\n", ["eval", "--method", "greedy-pg2", "--sigma-rank", "0.5",
                               "--metric", "pgi2", "--sigma-metric", "1.0"]),
        ("data.csv", "a,b\n", ["eval", "--method", "greedy-pg2", "--sigma-rank", "0.5",
                               "--metric", "randomize-rmse", "--k", "1"]),
    ],
    ids=["non-integer-ranking", "missing-sigma", "missing-half-width", "non-numeric-sigma",
         "one-element-point", "huge-leaf-value", "over-long-integer", "huge-xgboost-leaf",
         "huge-split-condition", "list-nodeid", "list-yes", "list-no", "superscript-split",
         "non-utf8-model", "non-utf8-data", "non-utf8-dist-config", "non-utf8-rankings",
         "non-utf8-attributions", "non-utf8-dump", "over-long-integer-dist-config",
         "deep-dist-config", "over-long-integer-attributions", "deep-attributions",
         "over-long-csv-field", "unwritable-rank-out", "unwritable-benchmark-out",
         "unwritable-benchmark-csv-out", "unwritable-convert-output", "nan-label",
         "inf-label", "header-only-pgi2", "header-only-randomize-rmse"],
)
def test_malformed_inputs_exit_3(workdir, capsys, name, content, argv):
    path = workdir / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    command, *rest = argv
    model = [] if command == "convert-model" else _model_arg(workdir)
    rc = main([command, *model, *(a.format(path=path) for a in rest)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("pg2: error: ")


def _chain_files(tmp_path, depth, x0):
    """A one-tree, one-feature chain model: split k sends x < k to a leaf of
    value 1 and x >= k on down the chain, whose last leaf has value 0."""
    split = '{"feature": 0, "threshold": %d, "left": {"value": 1.0}, "right": '
    (tmp_path / "model.json").write_text(
        '{"num_features": 1, "trees": ['
        + "".join(split % k for k in range(depth))
        + '{"value": 0.0}' + "}" * depth + "]}"
    )
    (tmp_path / "data.csv").write_text(f"a\n{x0}\n")
    return ["pg2", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data.csv"),
            "--point-index", "0", "--features", "0", "--sigma", "1.0"]


def test_deep_chain_model(tmp_path, capsys):
    # x sits on the last threshold, so the gap is 1 exactly when the noise
    # is negative
    assert main(_chain_files(tmp_path, 600, 599.0)) == 0
    assert capsys.readouterr().out == "0.500000000\n"


def test_too_deeply_nested_model_is_a_format_error(tmp_path, capsys):
    assert main(_chain_files(tmp_path, 2000, 0.0)) == 3
    assert "nested too deeply" in capsys.readouterr().err


def test_exit_code_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["pg2", "--bogus-flag"])
    assert exc.value.code == 2


def test_exit_code_numeric_domain(workdir, monkeypatch, capsys):
    import predgap.cli as cli_mod

    def boom(args):
        raise NumericDomainError("synthetic")

    # build_parser looks the command handler up at call time
    monkeypatch.setattr(cli_mod, "cmd_pg2", boom)
    rc = main(["pg2", *_model_arg(workdir), "--point-index", "0", "--sigma", "1.0"])
    assert rc == 4
    assert "synthetic" in capsys.readouterr().err
    assert exit_code_for(NumericDomainError("x")) == 4


# The file each fuzzed flag reads, and a command that reads it beside the
# valid model and data of ``_fuzz_dir``: {path} is the fuzzed file, {d} that
# directory.
_FUZZ_INPUTS = ["--model", "{d}/model.json", "--data", "{d}/data.csv"]
_FUZZED_FLAGS = [
    ("model.json", ["pg2", "--model", "{path}", "--data", "{d}/data.csv", *_PG2[1:]]),
    ("data.csv", ["pg2", "--model", "{d}/model.json", "--data", "{path}", *_PG2[1:]]),
    ("dist.json", [_DIST[0], *_FUZZ_INPUTS, *_DIST[1:]]),
    ("rankings.csv", [_RANKINGS[0], *_FUZZ_INPUTS, *_RANKINGS[1:]]),
    ("attributions.csv", [_ATTRIBUTIONS[0], *_FUZZ_INPUTS, *_ATTRIBUTIONS[1:]]),
    ("attributions.json", [_ATTRIBUTIONS[0], *_FUZZ_INPUTS, *_ATTRIBUTIONS[1:]]),
    ("dump.json", ["convert-model", "--input", "{path}", "--output", "{d}/converted.json"]),
]
_JSON_KEYS = st.sampled_from(
    ["num_features", "trees", "feature", "threshold", "left", "right", "value", "kind",
     "sigma", "half_width", "points", "nodeid", "split", "split_condition", "yes", "no",
     "children", "leaf"]
) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, 2**64]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=8,
)
_TABLE = st.lists(st.lists(_JSON, max_size=2), max_size=3)  # the shape of most inputs
_CSV = st.lists(
    st.lists(st.sampled_from(["0", "1", "-0.5", "a", "b", "nan", "", '"', "1e999"]),
             max_size=3).map(",".join),
    max_size=5,
).map("\n".join)
_CONTENTS = (
    st.binary(max_size=40)
    | (_JSON | _TABLE).map(lambda obj: json.dumps(obj).encode())
    | _CSV.map(str.encode)
)


@pytest.fixture(scope="module")
def _fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    pg.save_ensemble(canonical_ensemble(num_features=2), root / "model.json")
    (root / "data.csv").write_text("a,b\n-1.0,0.5\n0.5,-0.3\n")
    return root


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_FUZZED_FLAGS), _CONTENTS)
def test_cli_file_contents_never_escape(_fuzz_dir, flag, content):
    name, argv = flag
    path = _fuzz_dir / "fuzzed" / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(content)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([a.format(path=path, d=_fuzz_dir) for a in argv])
    assert rc in (0, 3, 4)
    assert rc == 0 or stderr.getvalue().startswith("pg2: error: ")
