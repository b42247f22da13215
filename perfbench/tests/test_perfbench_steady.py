import steady


def test_quartiles_match_the_statistics_module():
    assert steady.quartiles([3.0]) == (3.0, 3.0, 3.0)
    q1, med, q3 = steady.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, med, q3) == (1.5, 3.0, 4.5)


def _run(seed, program, trace=0, **counts):
    return {"workload": "w", "seed": seed, "trace": trace, "program": program,
            "counts": counts}


def test_session_check_flags_a_count_that_moved_on_the_same_program(tmp_path):
    path = tmp_path / "session.jsonl"
    assert steady.session_problems(path, _run(1, "p1", kernel_cycles=10)) == []
    steady.record(path, _run(1, "p1", kernel_cycles=10))
    steady.record(path, _run(1, "p1", kernel_cycles=10))
    # another seed or trace mode is never compared
    assert steady.session_problems(path, _run(2, "p1", kernel_cycles=11)) == []
    assert steady.session_problems(path, _run(1, "p1", 1, kernel_cycles=11)) == []
    assert steady.session_problems(path, _run(1, "p1", kernel_cycles=12)) == [
        "exact count kernel_cycles was 10, now 12 (seed 1)"]


def test_session_check_ignores_runs_of_another_program(tmp_path):
    # a change that moves the counts on purpose is benchmarked beside its
    # parent in one checkout: the parent's records must not convict it
    path = tmp_path / "session.jsonl"
    steady.record(path, _run(1, "parent", kernel_cycles=10, body_copies=5))
    changed = _run(1, "change", kernel_cycles=9, body_copies=4)
    assert steady.session_problems(path, changed) == []
    steady.record(path, changed)
    assert steady.session_problems(path, _run(1, "parent", kernel_cycles=10,
                                              body_copies=5)) == []


def test_program_fingerprint_follows_the_sources(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    source = tmp_path / "src" / "pkg" / "mod.py"
    source.write_text("x = 1\n")
    (tmp_path / "perfbench" / "run.py").write_text("")
    first = steady.program_fingerprint(tmp_path)
    assert steady.program_fingerprint(tmp_path) == first
    source.write_text("x = 2\n")
    assert steady.program_fingerprint(tmp_path) != first


def test_summary_lines_show_value_unit_and_sample_quartiles():
    lines = steady.summary_lines({"wall_s": 2.0, "kernel_norm": 120.0},
                                 {"wall_s": [1.0, 2.0, 3.0]},
                                 {"wall_s": "s", "kernel_norm": "%"})
    assert lines[1].split()[:3] == ["wall_s", "2", "s"]
    assert lines[1].split()[-1] == "3"
    assert lines[2].split() == ["kernel_norm", "120", "%"]
