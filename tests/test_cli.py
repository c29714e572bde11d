import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ddcircuits import Digraph, build_reduction, format_instance, parse_instance_text
from ddcircuits.cli import _BENCH_COLUMNS, _TRACE_COLUMNS, main
from test_golden import DENSE1_X0, INSTANCES, STARTS, _write_fixtures

SQUARE_TEXT = """2 0 4
1 0
0 1
-1 0
0 -1
1 1 0 0
-1 -2
"""

EDGE_OBJECTIVE_TEXT = SQUARE_TEXT.replace("-1 -2", "-1 0")

INFEASIBLE_TEXT = """1 0 2
1
-1
0 -1
-1
"""

# x1 + x2 = x2 + x3 = 0 in the unit box: the kernel of A is a line
LINE_KERNEL_TEXT = (
    "3 2 6\n1 1 0\n0 1 1\n0 0\n"
    "1 0 0\n0 1 0\n0 0 1\n-1 0 0\n0 -1 0\n0 0 -1\n1 1 1 0 0 0\n1 1 1\n"
)

TRIANGLE_GRAPH_TEXT = "3 3\n1 2\n2 3\n3 1\n"

# more digits than int() converts by default
HUGE = "9" * 5000


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.lp"
    path.write_text(SQUARE_TEXT)
    return str(path)


@pytest.fixture
def triangle_graph_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text(TRIANGLE_GRAPH_TEXT)
    return str(path)


class TestSolve:
    def test_optimal(self, square_file, capsys):
        assert main(["solve", square_file]) == 0
        out = capsys.readouterr().out
        assert "status: optimal" in out
        assert "x: 1 1" in out
        assert "value: -3" in out
        assert "unique: yes" in out

    def test_not_unique_reports_witness(self, tmp_path, capsys):
        path = tmp_path / "edge.lp"
        path.write_text(EDGE_OBJECTIVE_TEXT)
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "unique: no" in out
        assert "witness:" in out

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "empty.lp"
        path.write_text(INFEASIBLE_TEXT)
        assert main(["solve", str(path)]) == 4
        assert "infeasible" in capsys.readouterr().out

    def test_unbounded_exit_code(self, tmp_path, capsys):
        path = tmp_path / "ray.lp"
        path.write_text("1 0 1\n-1\n0\n-1\n")
        assert main(["solve", str(path)]) == 5
        assert "unbounded" in capsys.readouterr().out

    def test_json_mirror(self, square_file, capsys):
        assert main(["solve", square_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"status": "optimal", "unique": True, "value": "-3", "x": "1 1"}


class TestCircuits:
    def test_listing(self, square_file, capsys):
        assert main(["circuits", square_file]) == 0
        assert capsys.readouterr().out == "0 1\n1 0\n"


class TestDdStep:
    def test_reduce_then_exact_step(self, triangle_graph_file, tmp_path, capsys):
        lp_path = str(tmp_path / "triangle.lp")
        assert main(["reduce", triangle_graph_file, "-o", lp_path]) == 0
        assert main(["ddstep", lp_path, "--from", "zeros", "--mode", "exact"]) == 0
        out = capsys.readouterr().out
        assert "circuit: 1 1 1" in out
        assert "alpha: 1" in out
        assert "improvement: 31/8" in out

    def test_approx_mode(self, square_file, capsys):
        assert main(["ddstep", square_file, "--from", "0 0", "--mode", "approx"]) == 0
        assert "status: step" in capsys.readouterr().out

    def test_optimal_point(self, square_file, capsys):
        assert main(["ddstep", square_file, "--from", "1 1"]) == 0
        assert "status: optimal" in capsys.readouterr().out

    def test_from_file(self, square_file, tmp_path, capsys):
        pt = tmp_path / "start.pt"
        pt.write_text("0 1\n")
        assert main(["ddstep", square_file, "--from", str(pt)]) == 0
        assert "status: step" in capsys.readouterr().out


class TestOcnp:
    def test_exit_codes(self, square_file, tmp_path, capsys):
        assert main(["ocnp", square_file, "--from", "0 1"]) == 0
        assert main(["ocnp", square_file, "--from", "0 0"]) == 1
        assert main(["ocnp", square_file, "--from", "1 1"]) == 2
        edge = tmp_path / "edge.lp"
        edge.write_text(EDGE_OBJECTIVE_TEXT)
        assert main(["ocnp", str(edge), "--from", "0 0"]) == 3
        capsys.readouterr()


class TestDecompose:
    def test_square_diagonal(self, square_file, capsys):
        assert main(["decompose", square_file, "--from", "0 0", "--to", "1 1"]) == 0
        assert capsys.readouterr().out == "1 | 0 1\n1 | 1 0\n"


class TestAugment:
    def test_trace_csv(self, square_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert (
            main(
                [
                    "augment",
                    square_file,
                    "--from",
                    "0 0",
                    "--mode",
                    "exact",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "steps: 2" in out
        assert "final: 1 1" in out
        assert "objective: -3" in out
        body = trace.read_text()
        assert body.splitlines()[0] == "iteration,circuit,alpha,improvement,objective_after"
        assert body.splitlines()[1] == "1,0 1,1,2,-2"

    def test_json_mirror_includes_trace(self, square_file, capsys):
        assert main(["augment", square_file, "--from", "zeros", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps"] == 2
        assert doc["trace"][0] == {
            "iteration": 1,
            "circuit": [0, 1],
            "alpha": "1",
            "improvement": "2",
            "objective_after": "-2",
        }


class TestReduce:
    def test_output_matches_builder(self, triangle_graph_file, capsys):
        assert main(["reduce", triangle_graph_file]) == 0
        text = capsys.readouterr().out
        built = build_reduction(Digraph(3, ((1, 2), (2, 3), (3, 1)))).instance
        assert parse_instance_text(text) == built
        assert format_instance(built) == text

    def test_json_mirror(self, triangle_graph_file, capsys):
        assert main(["reduce", triangle_graph_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)["instance"]
        assert doc["n"] == 3 and doc["m_A"] == 3 and doc["m_B"] == 6
        assert doc["c"] == ["-3/2", "-5/4", "-9/8"]
        assert doc["A"][0] == ["1", "0", "-1"]


class TestGraphCommands:
    def test_longest_cycle(self, triangle_graph_file, capsys):
        assert main(["longest-cycle", triangle_graph_file]) == 0
        out = capsys.readouterr().out
        assert "arcs: 1 2 3" in out
        assert "cost: 3" in out

    def test_longest_cycle_weighted(self, tmp_path, capsys):
        path = tmp_path / "w.graph"
        path.write_text("3 3\n1 2 3/2\n2 3 5/4\n3 1 9/8\n")
        assert main(["longest-cycle", str(path)]) == 0
        assert "cost: 31/8" in capsys.readouterr().out

    def test_no_cycle(self, tmp_path, capsys):
        path = tmp_path / "dag.graph"
        path.write_text("2 1\n1 2\n")
        assert main(["longest-cycle", str(path)]) == 0
        assert "no-cycle" in capsys.readouterr().out

    def test_verify(self, triangle_graph_file, capsys):
        assert main(["verify", triangle_graph_file]) == 0
        assert "correspondence: ok" in capsys.readouterr().out


class TestErrors:
    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.lp"
        path.write_text("2 0 4\n1 x\n")
        assert main(["solve", str(path)]) == 64
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_size_guard_exit(self, square_file, capsys):
        assert main(["circuits", square_file, "--work-budget", "0"]) == 66
        assert "work budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, flats",
        [
            pytest.param(SQUARE_TEXT, 3, id="square"),  # the root and two circuits
            pytest.param(LINE_KERNEL_TEXT, 1, id="line-kernel"),  # the root is the circuit
        ],
    )
    def test_size_guard_counts_flats(self, tmp_path, capsys, monkeypatch, text, flats):
        monkeypatch.delenv("DDCIRCUITS_WORK_BUDGET", raising=False)
        path = tmp_path / "system.lp"
        path.write_text(text)
        assert main(["circuits", str(path), "--work-budget", str(flats - 1)]) == 66
        assert "work budget" in capsys.readouterr().err
        assert main(["circuits", str(path), "--work-budget", str(flats)]) == 0

    def test_not_pointed_exit(self, tmp_path, capsys):
        path = tmp_path / "strip.lp"
        path.write_text("2 0 2\n1 0\n-1 0\n1 0\n0 1\n")
        assert main(["circuits", str(path)]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "rank [A; B] < n" in captured.err
        assert "allow_non_pointed" not in captured.err

    def test_bad_point_dimension(self, square_file, capsys):
        assert main(["ddstep", square_file, "--from", "1 2 3"]) == 64
        capsys.readouterr()


def _mirror_cases():
    cases = [(f"solve-{name}", ["solve", f"{name}.lp"]) for name in (*INSTANCES, "k3")]
    for name, start in STARTS:
        for mode in ("exact", "approx"):
            for command in ("ddstep", "augment"):
                argv = [command, f"{name}.lp", "--from", start, "--mode", mode]
                cases.append((f"{command}-{mode}-{name}", argv))
        cases.append((f"ocnp-{name}", ["ocnp", f"{name}.lp", "--from", start]))
    return cases


MIRROR_CASES = _mirror_cases()


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_fixtures(str(directory))
    return directory


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return " ".join(str(item) for item in value)
    return str(value)


@pytest.mark.parametrize("argv", [argv for _, argv in MIRROR_CASES], ids=[i for i, _ in MIRROR_CASES])
def test_text_mirrors_json_document(argv, golden_dir, monkeypatch):
    """Each text line is ``key: value`` for one key of the JSON document: a
    list as its items joined by spaces, a flag as yes/no.  ``augment``'s
    per-step trace is JSON-only."""
    monkeypatch.delenv("DDCIRCUITS_WORK_BUDGET", raising=False)
    argv = [str(golden_dir / a) if a.endswith(".lp") else a for a in argv]
    outputs = {}
    for fmt in ("text", "json"):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([*argv, "--format", fmt])
        outputs[fmt] = (code, out.getvalue())
    assert outputs["text"][0] == outputs["json"][0]
    text, payload = outputs["text"][1], outputs["json"][1]
    if not payload:  # an error exit prints nothing in either format
        assert text == ""
        return
    doc = json.loads(payload)
    if argv[0] == "augment":
        assert isinstance(doc.pop("trace"), list)
    lines = text.splitlines()
    keys = [line.split(": ", 1)[0] for line in lines]
    assert sorted(keys) == sorted(doc)
    assert lines == [f"{key}: {_text_value(doc[key])}" for key in keys]


def _csv_module_bytes(header, rows) -> bytes:
    """What ``csv.writer`` writes for ``header`` and ``rows``, a list field
    joined by spaces as the CLI writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([" ".join(map(str, v)) if isinstance(v, list) else v for v in row])
    return buf.getvalue().encode("ascii")


@pytest.mark.parametrize(
    "argv, key",
    [
        pytest.param(["bench", "--nodes", "4", "--trials", "3", "--seed", "-7"], "rows", id="bench"),
        pytest.param(["augment", "dense1.lp", "--from", DENSE1_X0, "--mode", "approx"], "trace", id="trace"),
    ],
)
def test_csv_is_what_the_csv_module_writes(argv, key, golden_dir, monkeypatch, capsys):
    """The CSV of ``bench`` (with a negative seed in its graph ids) and of
    ``augment --trace`` is, byte for byte, what ``csv.writer`` writes for
    the rows of the JSON mirror: no field needs quoting."""
    monkeypatch.chdir(golden_dir)
    out = "out.csv"
    extra = ["-o", out] if key == "rows" else ["--trace", out]
    assert main([*argv, *extra]) == 0
    written = (golden_dir / out).read_bytes()
    capsys.readouterr()
    assert main([*argv, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)[key]
    assert len(rows) > 1
    header = list(_BENCH_COLUMNS if key == "rows" else _TRACE_COLUMNS)
    assert written == _csv_module_bytes(header, [[row[k] for k in header] for row in rows])


def _run_cli(args, hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    return subprocess.run(
        [sys.executable, "-m", "ddcircuits", *args],
        capture_output=True,
        env=env,
        check=True,
    ).stdout


class TestBench:
    def test_reproducible_bytes(self, tmp_path):
        first = _run_cli(["bench", "--nodes", "4", "--trials", "4", "--seed", "7"], "0")
        second = _run_cli(["bench", "--nodes", "4", "--trials", "4", "--seed", "7"], "1")
        assert first == second
        header = first.decode().splitlines()[0]
        assert header == (
            "graph_id,|V|,m,exact_improvement,approx_improvement,"
            "ratio,n_minus_rankA,exact_iters,approx_iters"
        )
        assert len(first.decode().splitlines()) == 5

    def test_no_floats_in_output(self):
        out = _run_cli(
            ["bench", "--nodes", "3", "--trials", "3", "--seed", "3"], "0"
        ).decode()
        assert "." not in out.replace("graph_id", "")

    def test_json_mirror(self, capsys):
        assert (
            main(["bench", "--nodes", "3", "--trials", "2", "--seed", "5", "--format", "json"])
            == 0
        )
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 2
        assert set(rows[0]) == {
            "graph_id",
            "|V|",
            "m",
            "exact_improvement",
            "approx_improvement",
            "ratio",
            "n_minus_rankA",
            "exact_iters",
            "approx_iters",
        }

    @pytest.mark.parametrize("nodes", ["0", "1"])
    def test_graph_without_arcs_is_rejected_at_the_flag(self, nodes, capsys):
        # a graph with fewer than 2 nodes has no arc, since self-loops are rejected
        assert main(["bench", "--nodes", nodes, "--trials", "1", "--seed", "1"]) == 64
        assert capsys.readouterr().err.endswith(
            f"error: argument --nodes: a graph needs at least 2 nodes to have an arc, got {nodes}\n"
        )


@pytest.mark.parametrize(
    "argv, env_budget, code",
    [
        pytest.param(["solve", "{square}"], None, 0, id="solve-ok"),
        pytest.param(["ocnp", "{square}", "--from", "0 0"], None, 1, id="ocnp-not-neighbor"),
        pytest.param(["ocnp", "{square}", "--from", "1 1"], None, 2, id="ocnp-already-optimal"),
        pytest.param(["ocnp", "{edge}", "--from", "0 0"], None, 3, id="ocnp-not-unique"),
        pytest.param(["solve", "{infeasible}"], None, 4, id="infeasible"),
        pytest.param(["solve", "{ray}"], None, 5, id="unbounded"),
        pytest.param(["solve", "{bad}"], None, 64, id="parse-error"),
        pytest.param(["ocnp", "{square}"], None, 64, id="missing-from"),
        pytest.param(["nosuch", "{square}"], None, 64, id="unknown-command"),
        pytest.param([], None, 64, id="no-command"),
        pytest.param(["circuits", "{square}", "--work-budget", "abc"], None, 64, id="budget-not-integer"),
        pytest.param(["circuits", "{square}", "--work-budget", "-5"], None, 64, id="budget-negative"),
        pytest.param(["augment", "{square}", "--from", "0 0", "--max-iters", "-1"], None, 64, id="max-iters-negative"),
        pytest.param(["bench", "--nodes", "4", "--trials", "-2", "--seed", "1"], None, 64, id="bench-trials-negative"),
        pytest.param(["bench", "--nodes", "-3", "--trials", "1", "--seed", "1"], None, 64, id="bench-nodes-negative"),
        pytest.param(["bench", "--nodes", "0", "--trials", "1", "--seed", "1"], None, 64, id="bench-nodes-zero"),
        pytest.param(["bench", "--nodes", "1", "--trials", "1", "--seed", "1"], None, 64, id="bench-nodes-one"),
        pytest.param(["circuits", "{square}"], "abc", 64, id="env-budget-not-integer"),
        pytest.param(["solve", "{square}"], "abc", 0, id="env-budget-unread-by-solve"),
        pytest.param(["solve", "{square}", "--work-budget", "5"], None, 64, id="solve-takes-no-budget"),
        pytest.param(["circuits", "{square}"], "-5", 64, id="env-budget-negative"),
        pytest.param(["solve", "{not_pointed}"], None, 65, id="not-pointed"),
        pytest.param(["circuits", "{square}", "--work-budget", "0"], None, 66, id="budget-zero"),
        pytest.param(["circuits", "{square}"], "0", 66, id="env-budget-zero"),
        pytest.param(["circuits", "{square}", "--work-budget", "0"], "abc", 66, id="flag-overrides-env"),
        pytest.param(["augment", "{square}", "--from", "1 1", "--max-iters", "0"], None, 0, id="max-iters-zero-at-optimum"),
        pytest.param(["ocnp", "{square}", "--from", "0"], None, 64, id="inline-point-beats-file-named-0"),
        pytest.param(["ocnp", "{square}", "--from", "٣ 1"], None, 64, id="from-non-ascii-digit"),
        pytest.param(["augment", "{square}", "--from", "0 0", "--max-iters", "1"], None, 70, id="iteration-cap"),
        pytest.param(["ddstep", "{square}", "--from", "two_lines.pt"], None, 64, id="from-file-two-data-lines"),
        pytest.param(["ocnp", "{square}", "--from", HUGE + " 1"], None, 64, id="from-inline-huge-entry"),
        pytest.param(["ocnp", "{square}", "--from", "1/0 1"], None, 64, id="from-inline-zero-denominator"),
        pytest.param(["circuits", "{square}", "--work-budget", HUGE], None, 64, id="budget-too-long"),
        pytest.param(["circuits", "{square}"], HUGE, 64, id="env-budget-too-long"),
        pytest.param(["bench", "--nodes", "3", "--trials", "1", "--seed", "1_0"], None, 64, id="bench-seed-underscore"),
        pytest.param(["bench", "--nodes", "3", "--trials", "1", "--seed", "٣"], None, 64, id="bench-seed-non-ascii-digit"),
        pytest.param(["bench", "--nodes", "3", "--trials", "1", "--seed", "+7"], None, 64, id="bench-seed-plus"),
        pytest.param(["bench", "--nodes", "3", "--trials", "1", "--seed", " 7"], None, 64, id="bench-seed-space"),
        pytest.param(["bench", "--nodes", "3", "--trials", "1", "--seed", "-7"], None, 0, id="bench-seed-negative"),
    ],
)
def test_exit_code_table(argv, env_budget, code, tmp_path, monkeypatch, capsys):
    files = {
        "square": SQUARE_TEXT,
        "edge": EDGE_OBJECTIVE_TEXT,
        "infeasible": INFEASIBLE_TEXT,
        "ray": "1 0 1\n-1\n0\n-1\n",
        "bad": "2 0 4\n1 x\n",
        "not_pointed": "2 0 1\n1 0\n0\n1 1\n",
    }
    paths = {}
    for name, text in files.items():
        path = tmp_path / f"{name}.lp"
        path.write_text(text)
        paths[name] = str(path)
    # a point file named like an inline point; "--from 0" must not read it
    (tmp_path / "0").write_text("0 1\n")
    (tmp_path / "two_lines.pt").write_text("0 0\n1 1\n")
    monkeypatch.chdir(tmp_path)
    if env_budget is None:
        monkeypatch.delenv("DDCIRCUITS_WORK_BUDGET", raising=False)
    else:
        monkeypatch.setenv("DDCIRCUITS_WORK_BUDGET", env_budget)
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err
    if code >= 64:
        assert "error:" in err
    if env_budget not in (None, "0") and code == 64:
        assert "DDCIRCUITS_WORK_BUDGET" in err
    # a rejected count is reported by its own message, not argparse's
    # fallback naming the converter
    assert "_non_negative_int" not in err


@pytest.mark.parametrize(
    "point, column, message",
    [
        pytest.param(HUGE + " 1", 1, "a number may have at most", id="huge-entry"),
        pytest.param("1/0 1", 1, "zero denominator", id="zero-denominator"),
        pytest.param("1 1/0", 3, "zero denominator", id="zero-denominator-second"),
    ],
)
def test_inline_point_is_parsed_not_opened(point, column, message, square_file, capsys):
    # tokens of the rational grammar make the point inline, so a bad value
    # is a parse error with its position, never a missing or overlong path
    assert main(["ocnp", square_file, "--from", point]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 1, column {column}: ")
    assert message in err


@pytest.mark.parametrize(
    "argv, text, line, column",
    [
        pytest.param(["solve", "input"], "1 0 0\n" + HUGE + "\n", 2, 1, id="instance-entry"),
        pytest.param(["reduce", "input"], "2 2\n1 2 1\n2 1 " + HUGE + "\n", 3, 5, id="graph-cost"),
        pytest.param(["ocnp", "{square}", "--from", "input"], "0 -" + HUGE + "\n", 1, 3, id="point-file"),
    ],
)
def test_over_long_number_is_located(argv, text, line, column, square_file, tmp_path, monkeypatch, capsys):
    # the toolkit's own message at the number, not the interpreter's advice
    (tmp_path / "input").write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main([arg.format(square=square_file) for arg in argv]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}, column {column}: a number may have at most ")
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "argv, data, where",
    [
        pytest.param(["solve", "input"], b"# caf\xc3\xa9\r\n" + SQUARE_TEXT.encode(), "line 1, column 6: a byte that is not ASCII", id="instance-comment"),
        pytest.param(["reduce", "input"], b"3 3\n1 2\r2 3\n3 1 \xff\n", "line 4, column 5: a byte that is not ASCII", id="graph"),
        pytest.param(["ocnp", "{square}", "--from", "input"], b"\x0b0 0\xe2\n", "line 2, column 4: a byte that is not ASCII", id="point-file"),
    ],
)
def test_non_ascii_byte_is_located(argv, data, where, square_file, tmp_path, monkeypatch, capsys):
    # lines are counted as str.splitlines counts them: "\r\n", "\r" and
    # "\x0b" each end one
    (tmp_path / "input").write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert main([arg.format(square=square_file) for arg in argv]) == 64
    assert capsys.readouterr().err == f"error: {where}\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["ddstep", "--mode", "exact"], id="ddstep-exact"),
        pytest.param(["ddstep", "--mode", "approx"], id="ddstep-approx"),
        pytest.param(["augment", "--mode", "exact"], id="augment-exact"),
        pytest.param(["augment", "--mode", "approx"], id="augment-approx"),
        pytest.param(["ocnp"], id="ocnp"),
    ],
)
def test_infeasible_start_is_a_usage_error(argv, square_file, capsys):
    # one message for every command, naming no function of the package
    command, *options = argv
    assert main([command, square_file, "--from", "5 5", *options]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the starting point is not feasible\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ocnp", "--help"])
    assert exc.value.code == 0
    assert "--from" in capsys.readouterr().out
