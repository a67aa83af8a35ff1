import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import chordlab
from chordlab import verify
from chordlab.cli import _EVAL_WINDOW, clamp_jobs, main
from chordlab.diagrams import format_diagram, random_diagram


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_rk_on_complete_graph_diagram(self, capsys):
        code, out, _ = run(capsys, "eval", "--invariant", "rk", "--k", "2", "ABCDABCD")
        assert code == 0
        assert out == "1\tABCDABCD\n"

    def test_sl2_pretty(self, capsys):
        code, out, _ = run(capsys, "eval", "--invariant", "sl2", "ABAB")
        assert code == 0
        assert out.split("\t")[0] == "c^2-c"

    def test_wc_graph_edge_list(self, capsys):
        code, out, _ = run(capsys, "eval", "--invariant", "wc", "--graph", "1-2")
        assert code == 0
        assert out.startswith("1\t")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--invariant", "sl2", "--format", "json", "ABAB"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == {"pretty": "c^2-c", "coeffs": [0, -1, 1]}
        assert rec["code"] == "ABAB"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--invariant", "rk", "--k", "2", "--format", "csv",
            "ABCDABCD",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "input,code,invariant,value"
        assert lines[1] == "ABCDABCD,ABCDABCD,rk,1"

    def test_file_input_with_comments(self, capsys, tmp_path):
        path = tmp_path / "inputs.txt"
        path.write_text("# two diagrams\nABAB\nAABB  # nested\n\n")
        code, out, _ = run(
            capsys, "eval", "--invariant", "sl2-recursive", "--file", str(path)
        )
        assert code == 0
        assert [ln.split("\t")[0] for ln in out.splitlines()] == ["c^2-c", "c^2"]

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--invariant", "sl2", "ABA")
        assert code == 2
        assert "parse error" in err

    def test_unknown_invariant_exit_3(self, capsys):
        code, _, _ = run(capsys, "eval", "--invariant", "nope", "ABAB")
        assert code == 3

    def test_missing_k_exit_3(self, capsys):
        code, _, _ = run(capsys, "eval", "--invariant", "rk", "ABAB")
        assert code == 3

    def test_flag_the_invariant_does_not_take_exit_3(self, capsys):
        for argv, name, flag in (
            (("--invariant", "sl2", "--k", "3", "AA"), "sl2", "k"),
            (("--invariant", "rk", "--k", "2", "--l", "5", "ABCDABCD"), "rk", "l"),
            (("--graph", "--invariant", "wc", "--k", "2", "1-2"), "wc", "k"),
        ):
            code, out, err = run(capsys, "eval", *argv)
            assert (code, out) == (3, "")
            assert err == f"error: invariant {name!r} does not take --{flag}\n"

    def test_k_and_l_below_range_exit_3(self, capsys):
        code, _, err = run(capsys, "eval", "--invariant", "rk", "--k", "0", "ABAB")
        assert code == 3
        assert err == "error: rk requires --k >= 2, got 0\n"
        code, _, err = run(
            capsys, "eval", "--invariant", "el-parity", "--l", "3", "ABAB"
        )
        assert code == 3
        assert err == "error: el-parity requires --l >= 4, got 3\n"

    def test_unreadable_file_exit_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        code, out, err = run(
            capsys, "eval", "--invariant", "sl2", "--file", str(missing)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("i/o error: ") and str(missing) in err
        assert err.count("\n") == 1

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "latin.txt"
        path.write_bytes(bytes([0xFF, 0xFE, 0x41, 0x42, 0x0A]))
        code, out, err = run(
            capsys, "eval", "--invariant", "sl2", "--file", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: input is not UTF-8 text: ")
        assert err.count("\n") == 1

    def test_order_ceiling_exit_3(self, capsys):
        word = "".join(chr(65 + i) for i in range(9)) * 2
        code, _, _ = run(capsys, "eval", "--invariant", "sl2", word)
        assert code == 3

    def test_file_spanning_windows_prints_row_by_row_bytes(self, capsys, tmp_path):
        rng = random.Random(12)
        words = [
            format_diagram(random_diagram(rng.randint(1, 5), rng))
            for _ in range(2 * _EVAL_WINDOW + 3)
        ]
        path = tmp_path / "words.txt"
        path.write_text("\n".join(words) + "\n")
        argv = ("eval", "--invariant", "sl2-projected", "--format", "csv")
        code, out, _ = run(capsys, *argv, "--file", str(path))
        assert code == 0
        rows = []
        for word in words:
            _, one, _ = run(capsys, *argv, word)
            header, row = one.splitlines(keepends=True)
            rows.append(row)
        assert out == header + "".join(rows)

    def test_projected_invariant(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--invariant", "sl2-projected", "ABCDABCD"
        )
        assert code == 0
        assert out.split("\t")[0] == "2c^2-7c"


class TestEnumerate:
    def test_diagrams_up_to_rotation(self, capsys):
        code, out, _ = run(capsys, "enumerate", "diagrams", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["AABB", "ABAB"]

    def test_diagrams_basepointed_count(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "diagrams", "--n", "4", "--mode", "basepointed"
        )
        assert code == 0
        assert len(out.splitlines()) == 105

    def test_graphs_labeled_n3(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "graphs", "--n", "3", "--mode", "labeled"
        )
        assert code == 0
        assert len(out.splitlines()) == 8

    def test_graphs_up_to_iso_n6(self, capsys):
        code, out, _ = run(capsys, "enumerate", "graphs", "--n", "6")
        assert code == 0
        assert len(out.splitlines()) == 156

    def test_bounds_exit_3(self, capsys):
        code, _, _ = run(capsys, "enumerate", "diagrams", "--n", "9")
        assert code == 3

    def test_unknown_mode_exit_3(self, capsys):
        for kind in ("diagrams", "graphs"):
            code, out, err = run(capsys, "enumerate", kind, "--n", "3", "--mode", "nope")
            assert (code, out) == (3, "")
            assert err == f"error: enumerate_{kind}: unknown mode 'nope'\n"

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "enumerate", "diagrams", "--n", "3")
        _, second, _ = run(capsys, "enumerate", "diagrams", "--n", "3")
        assert first == second


class TestTable1:
    def test_reconciled_exit_0(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for ln in lines if ln.startswith("row") and ln.endswith(" ok")) == 19
        assert sum(1 for ln in lines if ln.endswith("sign-misprint")) == 2
        assert not any(ln.endswith("MISMATCH") for ln in lines)
        assert lines[-1] == "table1: ok"

    def test_stdout_bytes_pinned(self, capsys):
        _, out, _ = run(capsys, "table1")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2494e898b5415a6d9fa987c33515d9f1c07bf865b1a721769f6c25f00fb2265b"
        )

    def test_strict_published_exit_1(self, capsys):
        code, out, _ = run(capsys, "table1", "--strict-published")
        assert code == 1


class TestVerify:
    def test_conjecture_exhaustive_k2(self, capsys):
        code, out, _ = run(capsys, "verify", "conjecture", "--k", "2", "--exhaustive")
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert summary == {"checked": 105, "violations": 0}

    def test_two_term_negative_control(self, capsys):
        code, out, _ = run(
            capsys, "verify", "two-term", "--invariant", "edge-count", "--n", "3"
        )
        assert code == 1
        summary = json.loads(out.splitlines()[-1])
        assert summary["violations"] > 0

    def test_wheel_prism(self, capsys):
        code, out, _ = run(capsys, "verify", "wheel-prism")
        assert code == 0
        lines = [json.loads(ln) for ln in out.splitlines()]
        targets = {rec["target"]: rec for rec in lines if "target" in rec}
        assert targets["five-wheel"]["rk"] == -3
        assert targets["three-prism"]["rk"] == -1
        assert all(rec["consistent"] for rec in targets.values())

    def test_sampled_determinism(self, capsys):
        args = (
            "verify", "parity", "--n", "6", "--k", "3", "--sample", "40", "--seed", "7"
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_jobs_do_not_change_bytes(self, capsys):
        for base in (
            ("verify", "wc-identity", "--k", "2"),
            ("verify", "four-term-graphs", "--n", "4", "--k", "2"),
            ("verify", "two-term", "--invariant", "edge-count", "--n", "4"),
            ("verify", "four-term-diagrams", "--n", "4", "--k", "2", "--exhaustive"),
            ("verify", "mutation", "--n", "5"),
            ("verify", "conjecture", "--k", "2", "--exhaustive"),
            ("verify", "parity", "--n", "5", "--k", "2"),
            ("verify", "oracle-equivalence", "--n", "4"),
        ):
            first_code, first, _ = run(capsys, *base)
            second_code, second, _ = run(capsys, *base, "--jobs", "2")
            assert (first_code, first) == (second_code, second)

    def test_refused_order_starts_no_worker(self, capsys, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for argv, message in (
            (("mutation", "--n", "7"), "mutation: order 7 outside 0..6"),
            (
                ("four-term-graphs", "--n", "7", "--k", "3"),
                "labeled graphs: order 7 outside 0..6",
            ),
            (
                ("four-term-graphs", "--invariant", "wc", "--n", "3", "--k", "2"),
                "invariant 'wc' does not take --k",
            ),
            # the default invariant's --k, order // 2, below its least value
            (
                ("four-term-graphs", "--n", "3"),
                "rk-graph requires --k >= 2, got 1"
                " (--k not given, so it defaults to --n // 2)",
            ),
        ):
            for jobs in ("1", "2"):
                got = run(capsys, "verify", *argv, "--jobs", jobs)
                assert got == (3, "", f"error: {message}\n")
        # an order the suite takes does reach the pool
        with pytest.raises(AssertionError, match="pool was started"):
            main(["verify", "mutation", "--n", "3", "--jobs", "2"])

    def test_clamp_jobs_to_cpus(self):
        assert clamp_jobs(10**9, 2) == 2
        assert clamp_jobs(10**9, None) == 1
        assert clamp_jobs(3, 64) == 3
        assert clamp_jobs(1, 1) == 1

    def test_k_below_range_in_suites_exit_3(self, capsys):
        code, _, err = run(capsys, "verify", "four-term-graphs", "--n", "4", "--k", "0")
        assert code == 3
        assert err == "error: rk-graph requires --k >= 2, got 0\n"
        code, _, err = run(
            capsys, "verify", "four-term-diagrams", "--n", "4", "--k", "1",
            "--exhaustive",
        )
        assert code == 3
        assert err == "error: rk requires --k >= 2, got 1\n"

    def test_omitted_k_is_not_blamed_for_a_bad_order(self, capsys):
        # a refused default --k (--n // 2) is reported only once the order
        # passes, and then with a note that --k was not given
        note = " (--k not given, so it defaults to --n // 2)"
        for argv, message in (
            (("four-term-graphs", "--n", "-1"), "labeled graphs: order -1 outside 0..6"),
            (
                ("four-term-diagrams", "--n", "1", "--sample", "3"),
                "4-term instances need order >= 2, got 1",
            ),
            (("four-term-diagrams", "--n", "2"), "rk requires --k >= 2, got 1" + note),
            (("four-term-graphs", "--n", "3"), "rk-graph requires --k >= 2, got 1" + note),
        ):
            code, out, err = run(capsys, "verify", *argv)
            assert (code, out) == (3, "")
            assert err == f"error: {message}\n"

    def test_sampling_below_two_chords_exit_3(self, capsys):
        for n in ("1", "0"):
            code, out, err = run(
                capsys, "verify", "four-term-diagrams", "--invariant", "sl2",
                "--n", n, "--sample", "3",
            )
            assert code == 3
            assert out == ""
            assert err == f"error: 4-term instances need order >= 2, got {n}\n"

    def test_negative_sample_exit_3(self, capsys):
        for argv in (
            ("conjecture", "--k", "3"),
            ("four-term-diagrams", "--invariant", "sl2", "--n", "5"),
            ("four-term-diagrams", "--n", "8", "--k", "4"),
            ("parity", "--n", "8", "--k", "4"),
            ("oracle-equivalence", "--n", "4"),
        ):
            code, out, err = run(capsys, "verify", *argv, "--sample", "-3")
            assert code == 3
            assert out == ""
            assert err == "error: --sample must be nonnegative, got -3\n"

    def test_sample_zero_checks_nothing(self, capsys):
        for argv in (
            ("conjecture", "--k", "2"),
            ("parity", "--n", "8", "--k", "4"),
        ):
            code, out, err = run(capsys, "verify", *argv, "--sample", "0")
            assert (code, out, err) == (0, '{"checked": 0, "violations": 0}\n', "")

    def test_exhaustive_and_sample_exclusive_exit_3(self, capsys):
        code, out, err = run(
            capsys, "verify", "parity", "--n", "6", "--k", "3",
            "--exhaustive", "--sample", "5",
        )
        assert code == 3
        assert out == ""
        assert "not allowed with argument --exhaustive" in err

    def test_sampled_parity_k_range_exit_3(self, capsys):
        for n, k in (("2", "1"), ("0", "0")):
            code, out, err = run(
                capsys, "verify", "parity", "--n", n, "--k", k, "--sample", "3"
            )
            assert code == 3
            assert out == ""
            assert err == f"error: parity requires --k >= 2, got {k}\n"

    def test_flags_outside_the_suite_row_exit_3(self, capsys):
        for argv, flag in (
            (("four-term-graphs", "--n", "4", "--k", "2", "--sample", "3"), "sample"),
            (("wc-identity", "--k", "2", "--sample", "5"), "sample"),
            (("wheel-prism", "--n", "3", "--sample", "2"), "n"),
        ):
            code, out, err = run(capsys, "verify", *argv)
            assert (code, out) == (3, "")
            assert err == f"error: suite {argv[0]!r} does not take --{flag}\n"
        # the mode and seed flags are accepted by every suite
        code, out, _ = run(
            capsys, "verify", "wc-identity", "--k", "2", "--exhaustive", "--seed", "4"
        )
        assert code == 0
        assert json.loads(out) == {"checked": 105, "violations": 0}

    def test_flag_the_resolved_invariant_does_not_take_exit_3(self, capsys):
        # the refusal eval makes, for the invariant the suite resolves
        for argv, name, flag in (
            (("four-term-graphs", "--invariant", "wc", "--n", "3", "--k", "2",
              "--l", "9"), "wc", "k"),
            (("four-term-graphs", "--invariant", "el-parity", "--n", "4",
              "--k", "2", "--l", "4"), "el-parity", "k"),
            (("four-term-graphs", "--invariant", "gf2-rank", "--n", "3",
              "--l", "4"), "gf2-rank", "l"),
            (("four-term-diagrams", "--invariant", "sl2", "--n", "3", "--k", "2"),
             "sl2", "k"),
            (("four-term-diagrams", "--n", "4", "--k", "2", "--l", "4"), "rk", "l"),
            # the default invariant, with its --k filled in
            (("four-term-graphs", "--n", "4", "--l", "4"), "rk-graph", "l"),
            (("four-term-diagrams", "--n", "4", "--l", "4", "--exhaustive"), "rk", "l"),
        ):
            code, out, err = run(capsys, "verify", *argv)
            assert (code, out) == (3, "")
            assert err == f"error: invariant {name!r} does not take --{flag}\n"
        # two-term takes neither flag, whatever its invariant
        code, out, err = run(
            capsys, "verify", "two-term", "--invariant", "wc", "--n", "3", "--k", "2"
        )
        assert (code, out) == (3, "")
        assert err == "error: suite 'two-term' does not take --k\n"

    def test_unknown_invariant_with_a_flag_is_reported_unknown(self, capsys):
        for suite, kind in (("four-term-graphs", "graph"), ("four-term-diagrams", "diagram")):
            code, out, err = run(
                capsys, "verify", suite, "--invariant", "nope", "--n", "3", "--k", "2"
            )
            assert (code, out) == (3, "")
            assert err == f"error: unknown {kind} invariant: 'nope'\n"

    def test_default_invariant_sets_k_to_half_the_order(self, capsys):
        for suite in ("four-term-graphs", "four-term-diagrams"):
            implicit = run(capsys, "verify", suite, "--n", "4")
            explicit = run(capsys, "verify", suite, "--n", "4", "--k", "2")
            assert implicit == explicit
            assert implicit[0] == 0
        # an explicit non-default invariant gets no --k
        code, out, _ = run(
            capsys, "verify", "four-term-graphs", "--invariant", "wc", "--n", "4"
        )
        assert (code, json.loads(out)) == (0, {"checked": 768, "violations": 0})

    def test_k_below_two_refused_before_the_ceiling(self, capsys):
        for suite, k in (("conjecture", "1"), ("wc-identity", "1"), ("conjecture", "-1")):
            code, out, err = run(capsys, "verify", suite, "--k", k)
            assert (code, out) == (3, "")
            assert err == f"error: {suite} requires --k >= 2, got {k}\n"
        for suite in (verify.suite_conjecture, verify.suite_wc_identity):
            with pytest.raises(ValueError, match="requires --k >= 2, got 1"):
                suite(1)

    def test_two_term_refuses_k_and_l_invariants_exit_3(self, capsys):
        # two-term takes no --k or --l, so the message must not ask for one
        for name in ("rk-graph", "el-parity"):
            code, out, err = run(
                capsys, "verify", "two-term", "--invariant", name, "--n", "4"
            )
            assert (code, out) == (3, "")
            assert err == (
                f"error: two-term checks wc, gf2-rank or edge-count, not {name}\n"
            )
            assert "--" not in err

    def test_two_term_edge_count_golden(self, capsys):
        # recorded before the mask loops moved to numpy
        code, out, _ = run(
            capsys, "verify", "two-term", "--invariant", "edge-count", "--n", "4"
        )
        assert code == 1
        assert json.loads(out.splitlines()[-1]) == {"checked": 768, "violations": 480}
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "53791ba910924fc82f6041b103185d02d4addbf6148b09d4e35e5f45723e99ff"
        )

    def test_bad_jobs_exit_3(self, capsys):
        code, _, _ = run(capsys, "verify", "wc-identity", "--k", "2", "--jobs", "0")
        assert code == 3

    def test_bounds_exit_3(self, capsys):
        code, _, _ = run(capsys, "verify", "conjecture", "--k", "5")
        assert code == 3

    def test_missing_required_flag_exit_3(self, capsys):
        code, _, _ = run(capsys, "verify", "parity", "--n", "6")
        assert code == 3

    def test_unknown_suite_exit_3(self, capsys):
        code, _, _ = run(capsys, "verify", "bogus")
        assert code == 3

    def test_suite_choices_are_the_verify_suites(self, capsys):
        suites = sorted(
            (f.__code__.co_firstlineno, name.removeprefix("suite_").replace("_", "-"))
            for name, f in vars(verify).items()
            if name.startswith("suite_")
        )
        choices = ", ".join(repr(name) for _, name in suites)
        _, _, err = run(capsys, "verify", "bogus")
        assert err.endswith(f"invalid choice: 'bogus' (choose from {choices})\n")

    def test_every_suite_invariant_is_accepted(self, capsys):
        for suite, names in verify.SUITE_INVARIANTS.items():
            for name in names:
                flag, _ = verify.INVARIANT_FLAGS.get(name, (None, None))
                given = {None: (), "k": ("--k", "2"), "l": ("--l", "4")}[flag]
                argv = ("verify", suite, "--invariant", name, "--n", "4", *given)
                code, out, err = run(capsys, *argv)
                assert code in (0, 1) and err == "", (argv, err)
                assert json.loads(out.splitlines()[-1])["checked"] > 0


# run in a fresh interpreter: the integer-only commands must not load
# numpy (the LazyLoader placeholder named "numpy" is expected, executed
# numpy submodules are not), and a numpy command after them must print
# the same bytes as in a process of its own
_NUMPY_FREE = """
import contextlib, io, sys
import chordlab.cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert chordlab.cli.main(list(argv)) == 0, argv
    return out.getvalue()

for argv in (
    ("eval", "--invariant", "rk", "--k", "2", "ABCDABCD"),
    # order 5 runs the cycle-product branch of r_k_oriented
    ("eval", "--invariant", "rk", "--k", "2", "ABCDEABCDE"),
    ("eval", "--graph", "--invariant", "rk-graph", "--k", "2", "1-2,2-3,3-4,4-1"),
    ("verify", "four-term-diagrams", "--n", "4", "--k", "2", "--exhaustive"),
    ("verify", "mutation", "--n", "4"),
    ("verify", "wc-identity", "--k", "2"),
    ("verify", "wheel-prism"),
    # the projection runs on exact ints
    ("eval", "--invariant", "sl2-projected", "ABCDEABCDE"),
    ("table1",),
    ("verify", "conjecture", "--k", "2", "--exhaustive"),
):
    run(*argv)
    loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
    assert not loaded, (argv, loaded[:5])
sys.stdout.write(run(*sys.argv[1:]))
"""


def test_integer_commands_leave_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(chordlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    # the closing command loads numpy through the lazy binding
    two_term = ("verify", "two-term", "--n", "4")
    lazy = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE, *two_term],
        capture_output=True, env=env, timeout=120,
    )
    assert lazy.returncode == 0, lazy.stderr.decode()
    fresh = subprocess.run(
        [sys.executable, "-m", "chordlab.cli", *two_term],
        capture_output=True, env=env, timeout=120,
    )
    assert fresh.returncode == 0, fresh.stderr.decode()
    assert lazy.stdout == fresh.stdout != b""
