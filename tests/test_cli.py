"""CLI tests: schemas, exit codes, determinism, file output.

Everything runs in-process through main(argv) so coverage tools and
debuggers see the command paths, except the checks that need a fresh
interpreter: a file that cannot be written, and the modules a run
imports.  Time, memory and --threads contracts of whole runs are rows
of tests/contracts.py.
"""

import json
import subprocess
import sys

import pytest
from reference import rows_to_csv, table_rows

from hiddenpoly import charsum, quantum, reconstruct
from hiddenpoly.cli import SOLVERS, _tables_to_csv, main
from hiddenpoly.limits import DEFAULT_OP_BUDGET

RECOVER_KEYS = [
    "p",
    "d",
    "seed",
    "gamma",
    "reps",
    "hidden",
    "match",
    "query_lower_bound",
    "algo",
    "recovered",
    "survivors_stage1",
    "survivors_stage2",
    "total_queries",
    "distinct_points",
    "fallback",
    "ambiguous",
    "params",
]

QUANTUM_KEYS = [
    "p",
    "d",
    "epsilon",
    "hidden",
    "k",
    "sigma_2d",
    "sigma_bound",
    "lambda_max",
    "alpha",
    "one_minus_alpha_times_p",
    "p_correct",
    "residual_mass",
]


# one short run of each subcommand
COMMANDS = [
    ("recover", "--p", "13", "--d", "1"),
    ("verify-bounds",),
    ("quantum", "--p", "13", "--d", "1"),
    ("bench", "--p", "13", "--seeds", "1"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stub_the_work(monkeypatch):
    """Replace every solver, sweep and quantum.gram_matrix with a stub that
    records its call and fails; returns the list of calls."""
    calls = []

    def stub(name):
        def fail(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran")
        return fail

    for name in SOLVERS.values():
        monkeypatch.setattr(reconstruct, name, stub(name))
    for name in charsum.SWEEPS.values():
        monkeypatch.setattr(charsum, name, stub(name))
    monkeypatch.setattr(quantum, "gram_matrix", stub("gram_matrix"))
    return calls


class TestRecover:
    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "recover", "--p", "101", "--d", "1", "--seed", "3", "--json", "--no-timing"
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == RECOVER_KEYS
        assert payload["match"] is True
        assert payload["recovered"] == payload["hidden"]

    def test_timing_fields_present_by_default(self, capsys):
        code, out, _ = run(capsys, "recover", "--p", "101", "--d", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert "elapsed_ms" in payload
        assert "stage_ms" in payload

    def test_plain_output(self, capsys):
        code, out, _ = run(capsys, "recover", "--p", "101", "--d", "1", "--no-timing")
        assert code == 0
        assert "match: true" in out

    def test_explicit_hidden(self, capsys):
        code, out, _ = run(
            capsys, "recover", "--p", "101", "--d", "1", "--hidden", "x + 42",
            "--algo", "brute", "--json", "--no-timing",
        )
        assert code == 0
        assert json.loads(out)["hidden"] == "x + 42"

    def test_all_algorithms(self, capsys):
        for algo in ("brute", "short", "two-stage"):
            code, out, _ = run(
                capsys, "recover", "--p", "251", "--d", "1", "--algo", algo,
                "--json", "--no-timing",
            )
            assert code == 0
            assert json.loads(out)["match"] is True

    def test_bad_prime_exits_2(self, capsys):
        code, _, err = run(capsys, "recover", "--p", "100", "--d", "1")
        assert code == 2
        assert "prime" in err

    def test_bad_hidden_exits_2(self, capsys):
        code, _, err = run(capsys, "recover", "--p", "7", "--d", "1", "--hidden", "x^2 + 1")
        assert code == 2
        assert "degree" in err

    def test_non_squarefree_hidden_exits_2(self, capsys):
        code, _, err = run(
            capsys, "recover", "--p", "7", "--d", "2", "--hidden", "x^2 + 6*x + 2"
        )
        assert code == 2
        assert "square-free" in err

    def test_bad_gamma_exits_2(self, capsys):
        code, _, _ = run(capsys, "recover", "--p", "7", "--d", "1", "--gamma", "0.3")
        assert code == 2

    def test_budget_exits_2(self, capsys):
        code, _, err = run(
            capsys, "recover", "--p", "10007", "--d", "2", "--algo", "brute",
            "--budget", "1000",
        )
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize(
        "p, d, budget",
        [
            # two-stage scans p^d candidates over min(N, ROUNDS[0]) points first
            (1009, 2, 1009**2 * reconstruct.ROUNDS[0] - 1),
            (31, 3, 31**3 * reconstruct.ROUNDS[0] - 1),
        ],
    )
    def test_budget_just_below_the_estimate_exits_2(self, capsys, p, d, budget):
        argv = ("recover", "--p", str(p), "--d", str(d), "--algo", "two-stage", "--json")
        code, out, err = run(capsys, *argv, "--budget", str(budget))
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert run(capsys, *argv, "--budget", str(budget + 1))[0] == 0

    def test_usage_error_exits_2(self, capsys):
        assert run(capsys, "recover", "--d", "1")[0] == 2
        assert run(capsys, "nonsense")[0] == 2


class TestVerifyBounds:
    def test_pair_identity_csv(self, capsys):
        code, out, _ = run(capsys, "verify-bounds", "--lemma", "pair-identity", "--p", "7")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lemma,p,d,params,measured,bound,pass"
        assert len(lines) == 1 + 49
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_weil_small(self, capsys):
        code, out, _ = run(capsys, "verify-bounds", "--lemma", "weil", "--p", "5", "7")
        assert code == 0
        assert "weil," in out

    # at 509 the affine-orbit rows need 1541 p^2 ~ 4e8 operations, a full scan p^4 ~ 6.7e10
    @pytest.mark.parametrize("p", [127, 509])
    def test_weil_fits_the_default_budget(self, capsys, p):
        code, out, _ = run(capsys, "verify-bounds", "--lemma", "weil", "--p", str(p))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 4
        assert all(line.startswith(f"weil,{p},") and line.endswith(",pass") for line in lines[1:])

    @pytest.mark.parametrize(
        "lemma, p, budget",
        [
            # the one row at D = 1, 2, then n + 1 and (n + 1) p rows at D = 3, 4 with
            # the least non-residue n = 3, p^2 cells per row, and 9 p^2 for the
            # perfect squares: one below that
            ("weil", 127, 523 * 127**2 - 1),
            # above the old p^d * max(N, 1000) count, below the p^d * N * 1000 product
            ("average", 101, 10**8),
            # p^2 pairs, p points each
            ("pair-identity", 101, 101**3 - 1),
        ],
    )
    def test_budget_just_below_the_estimate_exits_2(self, capsys, lemma, p, budget):
        code, out, err = run(
            capsys, "verify-bounds", "--lemma", lemma, "--p", str(p), "--budget", str(budget)
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err

    def test_seeded_sweeps_deterministic(self, capsys):
        args = ("verify-bounds", "--lemma", "mult-weil", "--p", "5", "--seed", "1")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_bad_prime_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify-bounds", "--lemma", "weil", "--p", "6")
        assert code == 2

    def test_bare_p_exits_2(self, capsys):
        # no primes is a usage error, not the default grid
        code, out, err = run(capsys, "verify-bounds", "--p")
        assert code == 2
        assert out == ""
        assert err == "error: --p needs at least one prime\n"

    def test_violation_exits_1_with_the_full_csv(self, capsys, monkeypatch):
        # a pair-identity row measured below its expected value fails: the CSV
        # still holds every row, and stderr names the row without a direction
        argv = ("verify-bounds", "--p", "7")
        code, clean, _ = run(capsys, *argv)
        assert code == 0
        sweep = charsum.sweep_pair_identity

        def failing(*args, **kwargs):
            tables = sweep(*args, **kwargs)
            tables[0].measured[1], tables[0].passed[1] = -3.0, False
            return tables

        monkeypatch.setattr(charsum, "sweep_pair_identity", failing)
        code, out, err = run(capsys, *argv)
        assert code == 1
        want = clean.splitlines()
        assert want[2] == "pair-identity,7,1,a=0;b=1,-1.0,-1.0,pass"
        want[2] = "pair-identity,7,1,a=0;b=1,-3.0,-1.0,fail"
        assert out.splitlines() == want
        assert err.splitlines() == [
            "error: 1 bound violation(s)",
            "error:   pair-identity p=7 d=1 a=0;b=1: measured=-3.0 bound=-1.0",
        ]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("lemma", charsum.SWEEPS)
    def test_csv_matches_the_per_row_writer(self, capsys, lemma, seed):
        # the column writer's CSV against one f-string per row tuple
        argv = ("verify-bounds", "--lemma", lemma, "--p", "3", "5", "7", "11", "--seed", str(seed))
        _, out, _ = run(capsys, *argv)
        tables = getattr(charsum, charsum.SWEEPS[lemma])((3, 5, 7, 11), seed=seed)
        assert out == rows_to_csv(table_rows(tables))
        assert len(out.splitlines()) == 1 + sum(len(table.d) for table in tables)

    def test_csv_prints_a_comma_in_params_as_a_semicolon(self):
        tables = [charsum.BoundTable("weil", 7, [2, 3], ["monic degree 2, non-squares", "a=1;b=2"],
                                     [2.0, 5.5], [2.5, 5.0], [True, False])]
        want = ("lemma,p,d,params,measured,bound,pass\n"
                "weil,7,2,monic degree 2; non-squares,2.0,2.5,pass\n"
                "weil,7,3,a=1;b=2,5.5,5.0,fail\n")
        assert _tables_to_csv(tables) == want
        assert rows_to_csv(table_rows(tables)) == want
        assert _tables_to_csv([]) == "lemma,p,d,params,measured,bound,pass\n"

    @pytest.mark.parametrize("lemma", charsum.SWEEPS)
    def test_every_sweep_honours_the_budget(self, capsys, lemma):
        code, out, err = run(
            capsys, "verify-bounds", "--lemma", lemma, "--p", "101", "--budget", "1"
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


def _counting(module, name, monkeypatch, calls):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_sweeps_and_solvers_are_looked_up_at_call_time(capsys, monkeypatch):
    # a wrapper installed on the module after cli is imported (as a tracer
    # does) must see every sweep and solver call the CLI makes
    calls = []
    for name in charsum.SWEEPS.values():
        _counting(charsum, name, monkeypatch, calls)
    for name in ("brute_force_recover", "short_window_recover", "two_stage_recover"):
        _counting(reconstruct, name, monkeypatch, calls)
    assert run(capsys, "verify-bounds", "--p", "5")[0] == 0
    for algo in ("brute", "short", "two-stage"):
        assert run(capsys, "recover", "--p", "101", "--d", "1", "--algo", algo)[0] == 0
    assert calls == [*charsum.SWEEPS.values(),
                     "brute_force_recover", "short_window_recover", "two_stage_recover"]


class TestQuantum:
    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "quantum", "--p", "101", "--d", "1", "--hidden", "x + 3",
            "--json", "--no-timing",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == QUANTUM_KEYS
        assert payload["k"] == 8
        assert payload["p_correct"] == payload["alpha"]
        assert payload["sigma_2d"] <= payload["sigma_bound"]

    def test_k_override(self, capsys):
        code, out, _ = run(
            capsys, "quantum", "--p", "13", "--d", "1", "--k", "3", "--json", "--no-timing"
        )
        assert code == 0
        assert json.loads(out)["k"] == 3

    def test_budget_exits_2(self, capsys):
        code, _, err = run(capsys, "quantum", "--p", "10007", "--d", "2")
        assert code == 2
        assert "budget" in err

    def test_budget_flag_is_honoured(self, capsys):
        code, out, err = run(capsys, "quantum", "--p", "101", "--d", "2", "--budget", "1000")
        assert code == 2
        assert out == ""
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        # m^2 p ceil(log2 p) + 2 m^3 with m = 101 orbits
        assert line == "error: quantum Gram needs ~9272709 elementary operations, budget is 1000"

    @pytest.mark.parametrize(
        "p, d, admitted",
        [
            (38461513, 1, True), (38461541, 1, False),
            (449, 2, True), (457, 2, False),
            (23, 3, True), (29, 3, False),
        ],
    )
    def test_default_budget_edges(self, capsys, p, d, admitted):
        # estimate only: a tiny budget refuses before the character table or the
        # non-residue search, and the refusal line carries the charge that the
        # default budget is held to
        code, out, err = run(capsys, "quantum", "--p", str(p), "--d", str(d), "--budget", "1")
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        charge = int(line.split("~")[1].split()[0])
        assert (charge <= DEFAULT_OP_BUDGET) == admitted

    @pytest.mark.parametrize("k", [(), ("--k", "3")])
    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_exits_2(self, capsys, epsilon, k):
        # with --k the epsilon still reaches the report, where NaN is not JSON
        code, out, err = run(capsys, "quantum", "--p", "13", "--d", "1", *k, "--epsilon", epsilon)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: epsilon must be finite"]

    def test_negative_infinite_epsilon_exits_2(self, capsys):
        # with "=": a separate "-inf" would read as an option
        code, _, err = run(capsys, "quantum", "--p", "13", "--d", "1", "--epsilon=-inf")
        assert code == 2
        assert err.splitlines() == ["error: epsilon must be positive"]

    def test_d1_beyond_the_old_candidate_cap(self, capsys):
        # 10007 candidates: one orbit, so no dense 10007 x 10007 matrix
        code, out, _ = run(
            capsys, "quantum", "--p", "10007", "--d", "1", "--json", "--no-timing"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma_2d"] <= payload["sigma_bound"]
        assert payload["p_correct"] == payload["alpha"]
        assert payload["residual_mass"] >= 0


class TestBench:
    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--p", "101", "--d", "1", "--seeds", "2", "--no-timing"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,d,algo,seeds,status,success,median_queries,work"
        assert len(lines) == 1 + 3  # three algorithms
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "101"
            assert fields[5] == "2"  # all seeds succeed

    def test_timing_column(self, capsys):
        code, out, _ = run(capsys, "bench", "--p", "101", "--d", "1", "--seeds", "1")
        assert code == 0
        assert out.split("\n")[0].endswith(",median_ms")

    def test_algo_subset(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--p", "101", "--d", "1", "--seeds", "1",
            "--algos", "brute", "--no-timing",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    @pytest.mark.parametrize(
        "argv",
        # a second bare --p leaves no primes at all
        [("--d", "0", "--seeds", "1"), ("--seeds", "0"), ("--seeds", "-1"), ("--p",)],
    )
    def test_bad_input_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "bench", "--p", "101", *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err

    def test_unknown_algorithm_exits_2_before_any_run(self, capsys, monkeypatch):
        calls = []
        for name in reconstruct.__all__:
            if name.endswith("_recover"):
                _counting(reconstruct, name, monkeypatch, calls)
        code, out, err = run(capsys, "bench", "--p", "101", "--algos", "two-stage", "bogus")
        assert code == 2
        assert out == ""
        assert "invalid choice: 'bogus'" in err
        assert calls == []

    def test_bare_algos_exits_2_before_any_run(self, capsys, monkeypatch):
        # no algorithms is a usage error, not every algorithm
        calls = []
        for name in reconstruct.__all__:
            if name.endswith("_recover"):
                _counting(reconstruct, name, monkeypatch, calls)
        code, out, err = run(capsys, "bench", "--p", "101", "--algos", "--seeds", "1", "--no-timing")
        assert code == 2
        assert out == ""
        assert err == "error: --algos needs at least one algorithm\n"
        assert calls == []


class TestDeterminism:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ("recover", "--p", "101", "--d", "1"),
        ("verify-bounds", "--lemma", "weil", "--p", "5"),
        ("quantum", "--p", "13", "--d", "1"),
        ("bench", "--p", "101", "--seeds", "1"),
    ])
    def test_threads_below_one_exit_2(self, capsys, command, threads):
        code, out, err = run(capsys, *command, "--threads", threads)
        assert code == 2
        assert out == ""
        assert err == "error: --threads must be at least 1\n"

    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_budget_below_one_exits_2_before_the_work(self, capsys, monkeypatch, command, budget):
        calls = _stub_the_work(monkeypatch)
        code, out, err = run(capsys, *command, "--budget", budget)
        assert code == 2
        assert out == ""
        assert err == "error: --budget must be at least 1\n"
        assert calls == []

    def test_repeat_runs_agree(self, capsys):
        args = ("recover", "--p", "101", "--d", "1", "--seed", "5", "--json", "--no-timing")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestFileOutput:
    def test_out_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        _, out, _ = run(
            capsys, "recover", "--p", "101", "--d", "1", "--json", "--no-timing",
            "--out", str(target),
        )
        assert target.read_text() == out

    @pytest.mark.parametrize("command", [
        ("recover", "--p", "13", "--d", "1"),
        ("verify-bounds", "--lemma", "pair-identity", "--p", "3"),
        ("quantum", "--p", "13", "--d", "1"),
        ("bench", "--p", "13", "--seeds", "1"),
    ])
    def test_unwritable_out_is_one_error_line(self, tmp_path, command):
        # the file is written before stdout: a missing directory prints no
        # report, one error line and no traceback, and exits 2
        target = tmp_path / "missing" / "report"
        argv = [sys.executable, "-m", "hiddenpoly.cli", *command, "--out", str(target)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: cannot write --out {target}: No such file or directory"]
        assert not target.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_out_directory_is_refused_before_the_work(
        self, capsys, monkeypatch, tmp_path, command
    ):
        calls = _stub_the_work(monkeypatch)
        target = tmp_path / "missing" / "report"
        code, out, err = run(capsys, *command, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write --out {target}: No such file or directory\n"
        assert not target.parent.exists()
        # an existing directory, and '' (which names '.'), cannot be written either
        monkeypatch.chdir(tmp_path)
        for target in (str(tmp_path), ""):
            code, out, err = run(capsys, *command, "--out", target)
            assert code == 2
            assert out == ""
            assert err == f"error: cannot write --out {target}: Is a directory\n"
        assert calls == []
        assert list(tmp_path.iterdir()) == []


def test_quantum_run_does_not_import_numpy_ma():
    # in numpy 2.x np.unique on a 1-D array imports numpy.ma, about 15 ms of a
    # fresh process; the quantum path dedupes its indices with boolean masks
    child = (
        "import sys\n"
        "from hiddenpoly.cli import main\n"
        "assert main(['quantum', '--p', '31', '--d', '2']) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
