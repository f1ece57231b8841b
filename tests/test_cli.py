"""CLI behavior: JSON on stdout, diagnostics on stderr, exit codes."""

import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import mastforge
from mastforge import make_balanced, make_caterpillar, parse, serialize
from mastforge.cli import main

from conftest import DATA_DIR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_k2_writes_pair_and_reports(self, tmp_path, capsys):
        s_path = tmp_path / "s.nwk"
        t_path = tmp_path / "t.nwk"
        code, out, err = run(
            capsys, "generate", "--k", "2",
            "--out-s", str(s_path), "--out-t", str(t_path),
        )
        assert code == 0 and not err
        payload = json.loads(out)
        assert payload == {"k": 2, "n": 16, "expected_mast": 4}
        assert parse(s_path.read_text()).size == 16
        assert parse(t_path.read_text()).size == 16

    def test_c_selects_k(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "generate", "--c", "2.0",
            "--out-s", str(tmp_path / "s.nwk"), "--out-t", str(tmp_path / "t.nwk"),
        )
        assert code == 0
        assert json.loads(out)["k"] == 1

    def test_oversized_k_fails_cleanly(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "generate", "--k", "5",
            "--out-s", str(tmp_path / "s.nwk"), "--out-t", str(tmp_path / "t.nwk"),
        )
        assert code == 1 and not out
        assert "k=5" in err

    @pytest.mark.parametrize(
        "c,refusal",
        [
            ("inf", "c must be"),
            ("nan", "c must be"),
            # subnormal c picks a k the builder refuses as too large
            ("5e-324", "would need"),
            ("1e-310", "would need"),
        ],
    )
    def test_non_finite_or_subnormal_c_fails_cleanly(self, tmp_path, capsys, c, refusal):
        code, out, err = run(
            capsys, "generate", f"--c={c}",
            "--out-s", str(tmp_path / "s.nwk"), "--out-t", str(tmp_path / "t.nwk"),
        )
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert refusal in err

    def test_huge_k_refusal_writes_the_exponent_symbolically(self, tmp_path, capsys):
        # 2**(2**20001 - 20002) has more digits than int-to-str allows
        code, out, err = run(
            capsys, "generate", "--k", "20000",
            "--out-s", str(tmp_path / "s.nwk"), "--out-t", str(tmp_path / "t.nwk"),
        )
        assert code == 1 and not out
        assert err.startswith("error: k=20000 would need 2**(2**20001 - 20002) ")
        assert err.count("\n") == 1

    def test_pipeline_generate_then_mast(self, tmp_path, capsys):
        s_path, t_path = str(tmp_path / "s.nwk"), str(tmp_path / "t.nwk")
        code, _, _ = run(capsys, "generate", "--k", "2", "--out-s", s_path, "--out-t", t_path)
        assert code == 0
        code, out, _ = run(capsys, "mast", s_path, t_path)
        assert code == 0
        assert json.loads(out) == 4

    def test_pipeline_k3_reaches_32(self, tmp_path, capsys):
        s_path, t_path = str(tmp_path / "s.nwk"), str(tmp_path / "t.nwk")
        code, out, _ = run(capsys, "generate", "--k", "3", "--out-s", s_path, "--out-t", t_path)
        assert code == 0
        assert json.loads(out)["n"] == 2048
        code, out, _ = run(capsys, "mast", s_path, t_path)
        assert code == 0
        assert json.loads(out) == 32

    def test_pipeline_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / name for name in ("a.nwk", "b.nwk", "c.nwk", "d.nwk")]
        run(capsys, "generate", "--k", "2", "--out-s", str(paths[0]), "--out-t", str(paths[1]))
        run(capsys, "generate", "--k", "2", "--out-s", str(paths[2]), "--out-t", str(paths[3]))
        assert paths[0].read_text() == paths[2].read_text()
        assert paths[1].read_text() == paths[3].read_text()


class TestMast:
    def test_self_mast_prints_leaf_count(self, tmp_path, capsys):
        path = tmp_path / "t.nwk"
        path.write_text("((a,b),(c,d));\n")
        code, out, _ = run(capsys, "mast", str(path), str(path))
        assert code == 0
        assert json.loads(out) == 4

    def test_brute_flag(self, tmp_path, capsys):
        path = tmp_path / "t.nwk"
        path.write_text("((a,b),c);\n")
        code, out, _ = run(capsys, "mast", "--brute", str(path), str(path))
        assert code == 0
        assert json.loads(out) == 3

    def test_witness_file(self, tmp_path, capsys):
        s_path = tmp_path / "s.nwk"
        t_path = tmp_path / "t.nwk"
        s_path.write_text("((1,2),(3,4));\n")
        t_path.write_text("(((1,2),3),4);\n")
        witness = tmp_path / "w.nwk"
        code, out, _ = run(capsys, "mast", str(s_path), str(t_path), "--witness", str(witness))
        assert code == 0
        size = json.loads(out)
        assert parse(witness.read_text()).size == size == 3

    def test_witness_with_brute_is_refused(self, tmp_path, capsys):
        path = tmp_path / "t.nwk"
        path.write_text("(a,b);\n")
        code, _, err = run(
            capsys, "mast", "--brute", str(path), str(path),
            "--witness", str(tmp_path / "w.nwk"),
        )
        assert code == 1 and "witness" in err

    def test_witness_with_brute_is_refused_before_reading(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "mast", "--brute", str(tmp_path / "absent_s.nwk"),
            str(tmp_path / "absent_t.nwk"), "--witness", str(tmp_path / "w.nwk"),
        )
        assert code == 1 and not out
        assert err == "the subset oracle reports only a size; drop --witness\n"

    def test_parse_error_names_file_and_position(self, tmp_path, capsys):
        path = tmp_path / "bad.nwk"
        path.write_text("(a,b,c);\n")
        good = tmp_path / "good.nwk"
        good.write_text("(a,b);\n")
        code, out, err = run(capsys, "mast", str(path), str(good))
        assert code == 1 and not out
        assert "bad.nwk" in err and "position" in err

    def test_non_utf8_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.nwk"
        path.write_bytes(b"\xff\xfe(a,b);")
        code, out, err = run(capsys, "mast", str(path), str(path))
        assert code == 1 and not out
        assert err.startswith(f"cannot read {path}: ") and err.count("\n") == 1

    def test_utf8_byte_order_mark_is_dropped(self, tmp_path, capsys):
        bom, plain = tmp_path / "bom.nwk", tmp_path / "ab.nwk"
        bom.write_bytes(b"\xef\xbb\xbf(a,b);")
        plain.write_text("(a,b);")
        witness = tmp_path / "w.nwk"
        code, out, err = run(capsys, "mast", str(bom), str(plain), "--witness", str(witness))
        assert (code, json.loads(out), err) == (0, 2, "")
        # the witness is written as plain UTF-8, without a mark
        assert witness.read_bytes() in (b"(a,b);\n", b"(b,a);\n")

    def test_missing_file(self, tmp_path, capsys):
        good = tmp_path / "good.nwk"
        good.write_text("(a,b);\n")
        code, _, err = run(capsys, "mast", str(tmp_path / "absent.nwk"), str(good))
        assert code == 1 and "absent.nwk" in err


class TestVerify:
    def test_generated_k2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "2")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        names = {entry["check"] for entry in report["checks"]}
        assert {"pairwise_overlap", "anticaterpillar_restrictions", "mast_size"} <= names

    def test_external_golden_pair_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--k", "3",
            "--s", str(DATA_DIR / "balanced2048_s.nwk"),
            "--t", str(DATA_DIR / "balanced2048_t.nwk"),
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True

    def test_wrong_size_supplied_pair_fails(self, tmp_path, capsys):
        small = tmp_path / "small.nwk"
        small.write_text("(a,b);\n")
        code, _, err = run(
            capsys, "verify", "--k", "2", "--s", str(small), "--t", str(small)
        )
        assert code == 1 and err

    def test_oversized_k_refused_before_any_work(self, capsys, monkeypatch):
        # n = 2**(2**(k+1)-k-2) grows doubly exponentially: it must never be
        # computed for a k no pair can be verified at
        import mastforge.construct as construct_mod

        def forbidden(k):
            raise AssertionError(f"counterexample_parameters({k}) was called")

        monkeypatch.setattr(construct_mod, "counterexample_parameters", forbidden)
        code, out, err = run(
            capsys, "verify", "--k", "4",
            "--s", str(DATA_DIR / "balanced2048_s.nwk"),
            "--t", str(DATA_DIR / "balanced2048_t.nwk"),
        )
        assert code == 1 and not out
        assert err.startswith("error: k=4 ") and err.count("\n") == 1

    def test_oversized_k_refusal_is_one_text(self, capsys):
        # the same refusal whether the pair would be built or read
        supplied = run(
            capsys, "verify", "--k", "4",
            "--s", str(DATA_DIR / "balanced2048_s.nwk"),
            "--t", str(DATA_DIR / "balanced2048_t.nwk"),
        )
        assert supplied == run(capsys, "verify", "--k", "4")
        code, out, err = supplied
        assert code == 1 and not out
        assert err.startswith("error: k=4 would need ") and err.count("\n") == 1

    def test_nonpositive_k_refused_before_reading(self, tmp_path, capsys):
        # k = 0 is refused as k is, not as a missing file is
        missing = str(tmp_path / "missing.nwk")
        supplied = run(capsys, "verify", "--k", "0", "--s", missing, "--t", missing)
        assert supplied == run(capsys, "verify", "--k", "0")
        assert supplied == (1, "", "error: k must be positive, got 0\n")

    def test_one_sided_flags_rejected(self, tmp_path, capsys):
        path = tmp_path / "s.nwk"
        path.write_text("(a,b);\n")
        code, _, err = run(capsys, "verify", "--k", "2", "--s", str(path))
        assert code == 1 and "both" in err


class TestPackBoundsProbe:
    def test_pack_reports_count(self, capsys):
        code, out, _ = run(capsys, "pack", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4
        assert payload["count"] == 2
        assert payload["host_height"] == 3
        assert sorted(p for cat in payload["caterpillars"] for p in cat) == list(range(8))

    def test_oversized_pack_refused_before_allocating(self, capsys):
        code, out, err = run(capsys, "pack", "--n", "40")
        assert code == 1 and not out
        assert err.startswith("error: n=40") and err.count("\n") == 1

    def test_bounds_value_mode(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "2048")
        assert code == 0
        payload = json.loads(out)
        assert payload["floor"] == pytest.approx(2 ** 1.87, rel=1e-12)
        assert payload["sixth_root"] == pytest.approx(2048 ** (1 / 6), rel=1e-12)

    def test_oversized_bounds_n_is_one_line(self, capsys):
        code, out, err = run(capsys, "bounds", "--n", "1" + "0" * 400)
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_bounds_certify(self, capsys):
        code, out, _ = run(capsys, "bounds", "--certify")
        assert code == 0
        payload = json.loads(out)
        assert payload["certificates"]["pass"] is True
        assert abs(payload["beta"]["beta"] - 0.149) <= 0.001

    def test_bounds_certify_output_is_pinned(self, capsys):
        # the beta scan and the 50-digit margin check must not move a bit
        code, out, err = run(capsys, "bounds", "--certify")
        assert (code, err) == (0, "")
        assert out == (
            '{"beta": {"delta": 0.0247965332755737, '
            '"beta": 0.14877920093805733}, "certificates": {"pass": true, '
            '"checks": [{"check": "cases_i_ii_margin", '
            '"expected": "1 + 0.22*log2(0.037) + 0.05 > slack 9.095e-13", '
            '"observed": 0.003607197812709642, "pass": true}, '
            '{"check": "case_iii_margin", '
            '"expected": "0.22*log2(0.889) + 0.05 > slack 9.095e-13", '
            '"observed": 0.012656171316890251, "pass": true}, '
            '{"check": "cases_iv_v_margin", '
            '"expected": "0.22*log2(0.926) + 0.025 > slack 9.095e-13", '
            '"observed": 0.0005985016915928711, "pass": true}, '
            '{"check": "case_exhaustion_complements", '
            '"expected": "1 - 3*0.037 = 0.889 and 1 - 2*0.037 = 0.926 exactly", '
            '"observed": true, "pass": true}, '
            '{"check": "pigeonhole_quarter", '
            '"expected": "largest of four overlap parts is at least t/4", '
            '"observed": true, "pass": true}]}}'
            "\n"
        )

    def test_runtime_needs_no_mpmath(self):
        # mpmath is a test-only oracle: importing the CLI must not load it,
        # and the bounds commands must run with it blocked
        script = (
            "import sys\n"
            "from mastforge.cli import main\n"
            "assert 'mpmath' not in sys.modules\n"
            "sys.modules['mpmath'] = None\n"
            "assert main(['bounds', '--certify']) == 0\n"
            "assert main(['bounds', '--n', '1000']) == 0\n"
        )
        src = str(Path(mastforge.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("\n") == 2

    def test_light_commands_do_not_import_numpy(self):
        # numpy loads only where a table is filled: mast, verify and probe
        script = (
            "import sys\n"
            "import mastforge.cli\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            "assert mastforge.cli.main(['bounds', '--certify']) == 0\n"
            "assert 'numpy' not in sys.modules, 'bounds'\n"
            "assert mastforge.cli.main(['pack', '--n', '10']) == 0\n"
            "assert 'numpy' not in sys.modules, 'pack'\n"
        )
        src = str(Path(mastforge.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr

    def test_probe(self, capsys):
        code, out, _ = run(capsys, "probe", "--m", "3", "--trials", "5", "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 8
        assert payload["all_above"] is True

    def test_internal_error_is_one_line(self, capsys, monkeypatch):
        # a real floor violation is impossible; force one to confirm the CLI
        # reports it as a single diagnostic line, not a traceback
        import mastforge.bounds as bounds_mod

        monkeypatch.setattr(bounds_mod, "lower_bound", lambda n: float(n))
        code, out, err = run(capsys, "probe", "--m", "3", "--trials", "2")
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_failed_guard_is_one_line(self, capsys, monkeypatch):
        # a beta profile that is not unimodal fails maximize_beta's guard
        import mastforge.bounds as bounds_mod

        monkeypatch.setattr(bounds_mod, "beta_of_delta", lambda d: math.sin(40 * d))
        code, out, err = run(capsys, "bounds", "--certify")
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_of_memory_is_one_line(self, tmp_path, capsys, monkeypatch):
        import mastforge.cli as cli_mod

        def exhausted(s, t):
            raise MemoryError

        monkeypatch.setattr(cli_mod, "mast_dp", exhausted)
        path = tmp_path / "t.nwk"
        path.write_text("(a,b);\n")
        code, out, err = run(capsys, "mast", str(path), str(path))
        assert code == 1 and not out
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_failed_system_call_is_not_a_stdout_failure(self, tmp_path, capsys, monkeypatch):
        # only a failed write of the output is reported as one, and only it
        # detaches sys.stdout
        import mastforge.cli as cli_mod

        def failing(s, t):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(cli_mod, "mast_dp", failing)
        path = tmp_path / "t.nwk"
        path.write_text("(a,b);\n")
        stdout = sys.stdout
        code, out, err = run(capsys, "mast", str(path), str(path))
        assert sys.stdout is stdout
        assert (code, out) == (1, "")
        assert err == f"error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n"

    @pytest.mark.skipif(resource is None, reason="no resource module")
    def test_table_past_the_address_space_limit_is_out_of_memory(self, tmp_path):
        # the table of a 6000-leaf pair, 2 * 5999 * 11999 bytes = 144 MB, does
        # not fit in a 250 MB address space beside the CLI and numpy (about
        # 143 MB), so numpy's allocation of it raises MemoryError
        labels = [str(i) for i in range(6000)]
        s_path, t_path = tmp_path / "s.nwk", tmp_path / "t.nwk"
        s_path.write_text(serialize(make_caterpillar(labels)) + "\n")
        t_path.write_text(serialize(make_caterpillar(labels[::-1])) + "\n")

        def limit_address_space():  # runs in the child alone
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (250 << 20, hard))

        src = str(Path(mastforge.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "mastforge.cli", "mast", str(s_path), str(t_path)],
            capture_output=True, text=True, preexec_fn=limit_address_space,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: out of memory")
        assert proc.stderr.count("\n") == 1

    def test_unknown_flag_is_nonzero(self, capsys):
        code = main(["pack", "--n", "4", "--bogus"])
        capsys.readouterr()
        assert code != 0

    def test_unknown_command_is_nonzero(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code != 0

    @pytest.mark.parametrize(
        "argv, prog",
        [(["pack"], "mastforge pack"), (["frobnicate"], "mastforge"),
         (["pack", "--n", "x"], "mastforge pack")],
    )
    def test_usage_error_is_one_line_with_exit_2(self, capsys, argv, prog):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith(f"{prog}: error: ") and err.count("\n") == 1

    def test_help_is_unchanged_by_one_line_errors(self, capsys):
        code, out, err = run(capsys, "pack", "--help")
        assert code == 0 and not err
        assert out.startswith("usage: mastforge pack [-h] --n N\n")


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self):
        pass


class TestWriteErrors:
    # a failed write or close raises an OSError that carries no file name;
    # the diagnostic names the output instead

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_output_file_is_named(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "generate", "--k", "1",
            "--out-s", "/dev/full", "--out-t", str(tmp_path / "t.nwk"),
        )
        assert code == 1 and not out
        assert err.startswith("cannot write /dev/full: ") and err.count("\n") == 1

    def test_closed_stdout_is_named(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code, _, err = run(capsys, "pack", "--n", "10")
        assert code == 1
        assert err == f"cannot write standard output: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.parametrize(
    "argv,stderr",
    [
        (["bounds", "--n", "0"], None),
        (["bounds", "--n", str(10 ** 400)], None),
        (["probe", "--m", "0", "--trials", "1"], None),
        (["pack", "--n", "-1"], None),
        (["generate", "--k", "0", "--out-s", "{dir}/s.nwk", "--out-t", "{dir}/t.nwk"], None),
        (["verify", "--k", "0"], None),
        (["verify", "--k", "2", "--s", "{dir}/caterpillar16.nwk", "--t", "{dir}/balanced16.nwk"],
         "error: tree s is not balanced\n"),
        (["verify", "--k", "2", "--s", "{dir}/balanced16.nwk", "--t", "{dir}/other16.nwk"],
         "error: the two trees must carry the same label set\n"),
        (["mast", "{dir}/non_utf8.nwk", "{dir}/non_utf8.nwk"], None),
        (["mast", "--brute", "{dir}/wide.nwk", "{dir}/wide.nwk"], None),
        (["mast", str(DATA_DIR / "balanced2048_s.nwk"), str(DATA_DIR / "balanced2048_t.nwk")], None),
        (["mast", "--witness", "{dir}/w.nwk", "{dir}/balanced16.nwk", "{dir}/other16.nwk"],
         "no common labels, nothing to write as a witness\n"),
    ],
    ids=[
        "bounds-n-zero", "bounds-n-huge", "probe-m-zero", "pack-negative",
        "generate-k-zero", "verify-k-zero", "verify-unbalanced", "verify-label-sets",
        "mast-non-utf8", "mast-brute-17", "mast-over-budget", "mast-witness-disjoint",
    ],
)
def test_error_contract(tmp_path, capsys, monkeypatch, argv, stderr):
    # every failure: exit 1, nothing on stdout, one stderr line (pinned where
    # given), no traceback and no witness file
    # on a 1 MB machine, where the golden pair's 16.8 MB table is refused;
    # no other case gets as far as a table
    monkeypatch.setattr(mastforge.mast, "_available_memory_bytes", lambda: 10 ** 6)
    (tmp_path / "non_utf8.nwk").write_bytes(b"\xff\xfe(a,b);")
    # 17 common labels: one more than the subset oracle accepts
    labels = [str(i) for i in range(17)]
    (tmp_path / "wide.nwk").write_text(serialize(make_caterpillar(labels)) + "\n")
    # 16-leaf trees for k=2: a caterpillar, and balanced trees on the labels
    # 1..16 and, sharing none of them, 17..32
    for name, tree in (
        ("caterpillar16", make_caterpillar([str(i) for i in range(1, 17)])),
        ("balanced16", make_balanced(4, [str(i) for i in range(1, 17)])),
        ("other16", make_balanced(4, [str(i) for i in range(17, 33)])),
    ):
        (tmp_path / f"{name}.nwk").write_text(serialize(tree) + "\n")
    code, out, err = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 1 and not out
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert stderr is None or err == stderr
    assert not (tmp_path / "w.nwk").exists()
