import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dlucky
from dlucky import (
    ConflictReport, build_cocktail, build_corona, cli, graph_from_json, graph_to_json, labeling_from_json,
)
from dlucky.parts import HallCertificate, check_hall_bound
from dlucky.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_web_counts(tmp_path, capsys):
    out = tmp_path / "web.json"
    code, _, _ = run(capsys, "gen", "web", "--m", "3", "--n", "6", "-o", str(out))
    assert code == 0
    g = graph_from_json(out.read_text())
    assert g.n == 48


def test_gen_corona_counts(tmp_path, capsys):
    out = tmp_path / "corona.json"
    code, _, _ = run(capsys, "gen", "corona", "--n", "5", "--r", "4", "-o", str(out))
    assert code == 0
    g = graph_from_json(out.read_text())
    assert g.n == 25 and g.edge_count == 30


def test_gen_cocktail_counts(tmp_path, capsys):
    out = tmp_path / "h.json"
    code, _, _ = run(
        capsys, "gen", "cocktail", "--n", "3", "--t", "8", "--r", "4", "-o", str(out)
    )
    assert code == 0
    assert graph_from_json(out.read_text()).n == 120


def test_gen_simple_families_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "--n", "5")
    assert code == 0
    assert graph_from_json(out).edge_count == 5
    code, out, _ = run(capsys, "gen", "cylinder", "--m", "3", "--n", "6")
    assert code == 0
    assert graph_from_json(out).n == 18


def test_gen_invalid_params_exit_2(capsys):
    code, _, err = run(capsys, "gen", "web", "--m", "2", "--n", "6")
    assert code == 2
    assert "m >= 3" in err
    code, _, err = run(capsys, "gen", "corona", "--n", "5")
    assert code == 2
    assert "--r" in err


def test_label_reports_claimed_eta(tmp_path, capsys):
    out = tmp_path / "lab.json"
    code, stdout, _ = run(
        capsys, "label", "corona", "--n", "11", "--r", "1", "-o", str(out)
    )
    assert code == 0
    assert "claimed_eta=6" in stdout
    assert "conflicts=0" in stdout
    assert labeling_from_json(out.read_text()).k_max == 6

    # with the labeling on stdout, stdout is a labeling file and the summary
    # goes to stderr
    code, stdout, stderr = run(capsys, "label", "web", "--m", "4", "--n", "6", "-o", "-")
    assert code == 0
    assert labeling_from_json(stdout).k_max == 4
    assert "claimed_eta=4" in stderr

    code, stdout, stderr = run(
        capsys, "label", "cocktail", "--n", "3", "--t", "8", "--r", "4", "-o", "-"
    )
    assert code == 0
    assert labeling_from_json(stdout).k_max == 2
    assert "claimed_eta=2" in stderr


def test_label_writes_roles_map(tmp_path, capsys):
    roles = tmp_path / "roles.json"
    code, _, _ = run(
        capsys, "label", "corona", "--n", "3", "--r", "1",
        "-o", str(tmp_path / "lab.json"), "--roles", str(roles),
    )
    assert code == 0
    data = json.loads(roles.read_text())
    assert data["clique"] == [0, 1, 2]
    code, stdout, stderr = run(
        capsys, "label", "corona", "--n", "3", "--r", "1",
        "-o", str(tmp_path / "lab.json"), "--roles", "-",
    )
    assert code == 0 and json.loads(stdout) == data and "claimed_eta=" in stderr
    # two documents on stdout would not parse as either
    code, stdout, stderr = run(capsys, "label", "corona", "--n", "3", "--r", "1", "--roles", "-")
    assert code == 2 and stdout == ""
    assert stderr == "error: -o - and --roles - cannot both write to stdout\n"


def test_label_rejects_two_flags_that_name_the_same_file(tmp_path, capsys, monkeypatch):
    # the roles map would be written over the labeling; the check runs before
    # any write, so the file keeps its old bytes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.json").symlink_to(tmp_path / "lab.json")
    for out, roles in [("lab.json", "lab.json"), ("lab.json", "sub/../lab.json"),
                       (str(tmp_path / "lab.json"), "link.json")]:
        (tmp_path / "lab.json").write_bytes(b"old")
        code, stdout, stderr = run(
            capsys, "label", "corona", "--n", "3", "--r", "1", "-o", out, "--roles", roles,
        )
        assert code == 2 and stdout == ""
        assert stderr == f"error: -o {out} and --roles {roles} name the same file\n"
        assert (tmp_path / "lab.json").read_bytes() == b"old"


def test_round_trip_gen_label_verify(tmp_path, capsys):
    g = tmp_path / "g.json"
    lab = tmp_path / "l.json"
    assert run(capsys, "gen", "corona", "--n", "5", "--r", "4", "-o", str(g))[0] == 0
    assert run(capsys, "label", "corona", "--n", "5", "--r", "4", "-o", str(lab))[0] == 0
    code, stdout, _ = run(capsys, "verify", str(g), str(lab))
    assert code == 0
    assert "d-lucky" in stdout


def test_verify_reads_the_graph_from_stdin(tmp_path, capsys, monkeypatch):
    lab = tmp_path / "l.json"
    assert run(capsys, "label", "corona", "--n", "5", "--r", "4", "-o", str(lab))[0] == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(graph_to_json(build_corona(5, 4).graph)))
    code, stdout, _ = run(capsys, "verify", "-", str(lab))
    assert code == 0
    assert stdout == "d-lucky: 0 conflict(s), max label 2\n"


def test_verify_conflict_exit_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    lab = tmp_path / "l.json"
    g.write_text('{"edges":[[0,1]],"n":2}\n')
    lab.write_text('{"labels":[1,1]}\n')
    code, stdout, _ = run(capsys, "verify", str(g), str(lab))
    assert code == 1
    assert "conflict: edge (0, 1)" in stdout


def test_verify_length_mismatch_exit_2(tmp_path, capsys):
    g = tmp_path / "g.json"
    lab = tmp_path / "l.json"
    g.write_text('{"edges":[[0,1]],"n":2}\n')
    lab.write_text('{"labels":[1,1,1]}\n')
    code, _, err = run(capsys, "verify", str(g), str(lab))
    assert code == 2
    assert "error" in err


def test_deeply_nested_input_exit_2(tmp_path, capsys):
    g = tmp_path / "g.json"
    deep = tmp_path / "deep.json"
    g.write_text('{"edges":[[0,1]],"n":2}\n')
    deep.write_text("[" * 100000 + "\n")
    for argv in (("solve", str(deep)), ("verify", str(g), str(deep))):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: invalid ") and err.count("\n") == 1


MALFORMED_GRAPHS = [
    "not json",
    "[1,2]",
    '{"n":2,"edges":[],"weird":1}',
    '{"n":"three","edges":[]}',
    '{"n":-1,"edges":[]}',
    '{"n":true,"edges":[]}',
    '{"n":2,"edges":{}}',
    '{"n":2,"edges":[[0,2]]}',
    '{"n":2,"edges":[[1,1]]}',
    '{"n":2,"edges":[5]}',
    '{"n":2,"edges":[null]}',
    '{"n":2,"edges":[[0,1,2]]}',
    '{"n":2,"edges":[[true,1]]}',
    '{"n":2,"edges":["01"]}',
    '{"n":2,"edges":[],"tags":["a"]}',
    '{"n":%s,"edges":[]}' % ("1" * 5000),
    b"\xff\xfe",
]
MALFORMED_LABELINGS = [
    "not json",
    "[]",
    '{"labels":[1,2],"x":1}',
    '{"labels":"ab"}',
    '{"labels":[true,1]}',
    '{"labels":[0]}',
    '{"labels":[1,3],"k":2}',
    '{"labels":[1,2],"k":0}',
    '{"labels":[1,2],"k":1.5}',
    b"\xff\xfe",
]


@pytest.mark.parametrize(
    "what, text",
    [("graph", t) for t in MALFORMED_GRAPHS] + [("labeling", t) for t in MALFORMED_LABELINGS],
    ids=lambda x: x[:30] if isinstance(x, str) else repr(x),
)
def test_malformed_files_exit_2_with_one_prefixed_line(tmp_path, capsys, what, text):
    files = {"graph": tmp_path / "g.json", "labeling": tmp_path / "l.json"}
    files["graph"].write_text('{"edges":[[0,1]],"n":2}\n')
    files["labeling"].write_text('{"labels":[1,2]}\n')
    bad = files[what]
    bad.write_bytes(text) if isinstance(text, bytes) else bad.write_text(text)
    code, stdout, err = run(capsys, "verify", str(files["graph"]), str(files["labeling"]))
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: invalid {what} file: ") and err.count("\n") == 1
    assert "internal error" not in err


def test_verify_json_report(tmp_path, capsys):
    g = tmp_path / "g.json"
    lab = tmp_path / "l.json"
    g.write_text('{"edges":[[0,1]],"n":2}\n')
    lab.write_text('{"labels":[1,2]}\n')
    code, stdout, _ = run(capsys, "verify", str(g), str(lab), "--json")
    assert code == 0
    report = json.loads(stdout)
    assert report["conflicts"] == []
    assert report["d_sums"] == [3, 2]
    assert report["max_label"] == 2


def test_bound_on_web(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(capsys, "gen", "web", "--m", "3", "--n", "6", "-o", str(g))
    code, stdout, _ = run(capsys, "bound", str(g), "--json")
    assert code == 0
    data = json.loads(stdout)
    assert data["bound"] == 4
    assert data["omega"] == 6
    assert data["delta"] == data["max_deg"] == 6


def test_bound_reports_the_part_bound_with_its_certificate(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(capsys, "gen", "cocktail", "--n", "2", "--t", "14", "--r", "1", "-o", str(g))
    code, stdout, _ = run(capsys, "bound", str(g), "--json")
    assert code == 0
    data = json.loads(stdout)
    assert (data["bound"], data["omega"]) == (2, 14)  # Theorem 1's keys are unchanged
    hall = data["hall"]
    assert hall["bound"] == 6
    assert hall["parts"] == [[2 * j, 2 * j + 1] for j in range(14)]
    assert hall["interval"] == [18, 30] and hall["overfull"] == list(range(14))
    cert = HallCertificate(
        tuple(map(tuple, hall["parts"])), tuple(hall["interval"]), tuple(hall["overfull"])
    )
    assert check_hall_bound(graph_from_json(g.read_text()), hall["bound"], cert)
    code, stdout, _ = run(capsys, "bound", str(g))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "lower bound: 2" and len(lines) == 3
    assert lines[2] == (
        "part bound: 6 over 14 part(s); with 5 labels, 14 part ranges lie in [18, 30], "
        "which has 13 values"
    )


def test_bound_on_cocktail_5_100_5_in_a_child_process(tmp_path):
    # 3,000 vertices and 5^100 maximum cliques: both bounds come from searches
    # that never list the cliques
    src = str(Path(dlucky.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def dlucky_cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "dlucky.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )

    gen = dlucky_cli("gen", "cocktail", "--n", "5", "--t", "100", "--r", "5", "-o", "g.json")
    assert gen.returncode == 0, gen.stderr
    done = dlucky_cli("bound", "g.json", "--json")
    assert done.returncode == 0, done.stderr
    data = json.loads(done.stdout)
    assert data["bound"] == 2
    assert data["hall"]["bound"] == build_cocktail(5, 100, 5).claimed_eta


def test_bound_rejects_disconnected(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text('{"edges":[[0,1],[2,3]],"n":4}\n')
    code, _, err = run(capsys, "bound", str(g))
    assert code == 2
    assert "connected" in err


def test_solve_k3(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(capsys, "gen", "complete", "--n", "3", "-o", str(g))
    code, stdout, _ = run(capsys, "solve", str(g), "--json")
    assert code == 0
    data = json.loads(stdout)
    assert data["eta"] == 3
    assert len(data["witness"]) == 3
    assert data["nodes_explored"] > 0


def test_solve_budget_exceeded_exit_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(capsys, "gen", "complete", "--n", "4", "-o", str(g))
    code, stdout, _ = run(capsys, "solve", str(g), "--max-k", "2")
    assert code == 1
    assert "exceeds budget" in stdout


def test_solve_respects_vertex_cap(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(capsys, "gen", "path", "--m", "17", "-o", str(g))
    code, _, err = run(capsys, "solve", str(g))
    assert code == 2 and "16" in err
    code, stdout, _ = run(capsys, "solve", str(g), "--vertex-cap", "17", "--max-k", "2")
    assert code == 0


def test_export_dot(tmp_path, capsys):
    g = tmp_path / "g.json"
    lab = tmp_path / "l.json"
    run(capsys, "gen", "corona", "--n", "5", "--r", "4", "-o", str(g))
    run(capsys, "label", "corona", "--n", "5", "--r", "4", "-o", str(lab))
    code, stdout, _ = run(capsys, "export-dot", str(g), "--labeling", str(lab))
    assert code == 0
    assert stdout.startswith("graph G {")
    assert 'dsum="' in stdout and 'role="clique"' in stdout

    code, stdout, _ = run(capsys, "export-dot", str(g))
    assert code == 0
    assert "dsum" not in stdout


def test_export_dot_invalid_labeling_exit_2(tmp_path, capsys):
    g = tmp_path / "g.json"
    lab = tmp_path / "l.json"
    run(capsys, "gen", "complete", "--n", "3", "-o", str(g))
    lab.write_text("{broken")
    code, _, err = run(capsys, "export-dot", str(g), "--labeling", str(lab))
    assert code == 2
    lab.write_text('{"labels":[1,2]}\n')  # wrong length
    code, _, err = run(capsys, "export-dot", str(g), "--labeling", str(lab))
    assert code == 2
    assert "labeling has 2 entries for a graph on 3 vertices" in err


def _stale(path, mode=0o644):
    """Fill ``path`` with random bytes, more than any output here, and set its mode."""
    path.write_bytes(os.urandom(200_000))
    path.chmod(mode)


def _stdout_bytes(capsys, *argv):
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    return stdout.encode("utf-8")


def test_gen_overwrites_a_longer_file_in_place(tmp_path, capsys):
    web = tmp_path / "web.json"
    flags = ("gen", "web", "--m", "5", "--n", "100")
    _stale(web)
    assert run(capsys, *flags, "-o", str(web))[0] == 0
    assert web.read_bytes() == _stdout_bytes(capsys, *flags, "-o", "-")


def test_label_and_export_dot_overwrite_longer_files_in_place(tmp_path, capsys):
    flags = ("corona", "--n", "4", "--r", "2")
    g, lab, roles, dot = (tmp_path / name for name in ("g.json", "l.json", "r.json", "g.dot"))
    run(capsys, "gen", *flags, "-o", str(g))
    for path in (lab, roles, dot):
        _stale(path)
    assert run(capsys, "label", *flags, "-o", str(lab), "--roles", str(roles))[0] == 0
    assert lab.read_bytes() == _stdout_bytes(capsys, "label", *flags, "-o", "-")
    assert roles.read_bytes() == _stdout_bytes(
        capsys, "label", *flags, "-o", str(tmp_path / "x"), "--roles", "-"
    )
    assert run(capsys, "export-dot", str(g), "--labeling", str(lab), "-o", str(dot))[0] == 0
    assert dot.read_bytes() == _stdout_bytes(capsys, "export-dot", str(g), "--labeling", str(lab))


def test_an_overwritten_file_keeps_its_mode_and_its_symlink(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    _stale(target, mode=0o600)
    link.symlink_to(target)
    assert run(capsys, "gen", "complete", "--n", "4", "-o", str(link))[0] == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.stat().st_mode & 0o777 == 0o600
    assert target.read_bytes() == _stdout_bytes(capsys, "gen", "complete", "--n", "4")


def test_output_to_dev_null_exits_0(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(capsys, "gen", "complete", "--n", "4", "-o", str(g))
    assert run(capsys, "gen", "complete", "--n", "4", "-o", os.devnull) == (0, "", "")
    assert run(capsys, "export-dot", str(g), "-o", os.devnull) == (0, "", "")


def test_a_failed_write_leaves_no_old_byte_after_the_new_ones(tmp_path, capsys, monkeypatch):
    class HalfWriter(io.TextIOWrapper):
        """Writes half of its text, then fails as a full disk would."""

        def write(self, text):
            super().write(text[: len(text) // 2])
            self.flush()
            raise OSError(28, "No space left on device")

    def half_open(fd, mode, encoding):
        return HalfWriter(io.FileIO(fd, mode), encoding=encoding)

    web = tmp_path / "web.json"
    flags = ("gen", "web", "--m", "5", "--n", "100")
    full = _stdout_bytes(capsys, *flags)
    _stale(web)
    monkeypatch.setattr(cli, "open", half_open, raising=False)
    code, stdout, stderr = run(capsys, *flags, "-o", str(web))
    assert code == 2 and stdout == ""
    assert stderr == "error: [Errno 28] No space left on device\n"
    assert web.read_bytes() == full[: len(full) // 2]


def test_unknown_flags_are_errors(capsys):
    code, _, _ = run(capsys, "gen", "complete", "--n", "3", "--frobnicate", "1")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def test_outputs_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen", "web", "--m", "4", "--n", "7", "-o", str(a))
    run(capsys, "gen", "web", "--m", "4", "--n", "7", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("error", [RuntimeError("kernel state lost"), MemoryError()])
def test_internal_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch, error):
    g = tmp_path / "g.json"
    run(capsys, "gen", "complete", "--n", "3", "-o", str(g))

    def broken(args):
        raise error

    monkeypatch.setattr(cli, "cmd_bound", broken)
    code, stdout, err = run(capsys, "bound", str(g))
    assert code == 2 and stdout == ""
    assert err.startswith("error: internal error: " + type(error).__name__)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_construction_error_exits_2_with_its_message(capsys, monkeypatch):
    # a builder whose labeling fails its own check raises ConstructionError
    def failing_verify(g, labeling):
        return ConflictReport(conflicts=(((0, 1), 5),), d_sums=(5,) * g.n)

    monkeypatch.setattr(dlucky.families, "verify", failing_verify)
    code, stdout, err = run(capsys, "label", "corona", "--n", "3", "--r", "1", "-o", "-")
    assert code == 2 and stdout == ""
    assert err == (
        "error: corona(3,1) labeling failed verification with 1 conflicting edge(s): "
        "(0, 1) -> 5\n"
    )


def test_keyboard_interrupt_is_not_swallowed(tmp_path, capsys, monkeypatch):
    g = tmp_path / "g.json"
    run(capsys, "gen", "complete", "--n", "3", "-o", str(g))

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_solve", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["solve", str(g)])
