"""Command-line interface."""

import time

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_datasets_listing(capsys):
    code, out, _ = run_cli(capsys, "datasets")
    assert code == 0
    for name in ("twitter", "kron28", "kron30", "kron32", "wdc"):
        assert name in out
    assert "128,000,000,000" in out  # wdc paper edges


def test_profiles_listing(capsys):
    code, out, _ = run_cli(capsys, "profiles")
    assert code == 0
    assert "GraFBoost" in out and "GraFSoft" in out
    assert "yes" in out and "no" in out  # accelerator column


def test_run_engine(capsys):
    code, out, _ = run_cli(capsys, "run", "--system", "GraFBoost",
                           "--algorithm", "bfs", "--dataset", "twitter",
                           "--scale", "6e-5")
    assert code == 0
    assert "supersteps" in out
    assert "MTEPS" in out


def test_run_baseline_dnf_exit_code(capsys):
    # GraphLab cannot hold kron28 in (scaled) memory: nonzero exit, reason shown.
    code, out, _ = run_cli(capsys, "run", "--system", "GraphLab",
                           "--algorithm", "pagerank", "--dataset", "kron28",
                           "--scale", "6.1e-5")
    assert code == 1
    assert "DNF" in out and "memory" in out


def test_run_scale_too_small_for_key_packing_is_a_usage_error(capsys):
    # twitter @ 1e-20 has 64 vertices but the paper's id width scaled down
    # needs 73 key bits: one line naming dataset and scale, no traceback,
    # from run, compare and serve alike.
    for command in (["run"], ["compare"], ["serve", "--demo"]):
        code, _, err = run_cli(capsys, *command, "--dataset", "twitter",
                               "--scale", "1e-20")
        assert code == 2, command
        assert err.count("\n") == 1
        assert err.startswith("twitter @ scale 1e-20: cannot run ")
        assert "ValueError" in err and "key_bits" in err


def test_run_out_of_host_memory_is_a_usage_error(capsys, monkeypatch):
    import repro.cli

    def build(dataset, scale, seed):
        raise MemoryError("Unable to allocate 5.50 GiB for an array")

    monkeypatch.setattr(repro.cli, "build_graph", build)
    code, out, err = run_cli(capsys, "run", "--dataset", "twitter",
                             "--scale", "0.5")
    assert code == 2 and out == ""
    assert err == ("twitter @ scale 0.5: cannot run GraFBoost bfs: "
                   "MemoryError: Unable to allocate 5.50 GiB for an array\n")


def test_compare_matrix(capsys):
    code, out, _ = run_cli(capsys, "compare", "--dataset", "twitter",
                           "--systems", "GraFBoost,GraFSoft",
                           "--algorithms", "pagerank", "--scale", "6e-5")
    assert code == 0
    assert "GraFBoost" in out and "GraFSoft" in out
    assert "ms" in out


def test_compare_rejects_unknown_system(capsys):
    # An empty list used to exit 0 and print an empty table.
    for systems, message in (("Spark", "unknown systems: Spark"),
                             ("", "--systems names no systems"),
                             (" , ", "--systems names no systems")):
        code, _, err = run_cli(capsys, "compare", "--systems", systems,
                               "--algorithms", "pagerank")
        assert code == 2, systems
        assert message in err


def test_compare_rejects_unknown_algorithm(capsys):
    for algorithms, message in (("trianglecount", "unknown algorithms"),
                                ("", "--algorithms names no algorithms")):
        code, _, err = run_cli(capsys, "compare", "--systems", "GraFSoft",
                               "--algorithms", algorithms)
        assert code == 2, algorithms
        assert message in err


def test_scale_validation():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--scale", "2.0"])
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--scale", "0"])


@pytest.mark.parametrize("argv", [
    ["run", "--workers", "0"], ["run", "--workers", "-2"],
    ["run", "--workers", "two"], ["run", "--seed", "-1"],
    ["run", "--checkpoint-every", "-3"],
    ["serve", "--demo", "--workers", "0"], ["serve", "--demo", "--seed", "-1"],
    ["compare", "--seed", "-1"],
])
def test_count_flags_are_validated_by_the_parser(argv, capsys):
    # Each of these used to die with a traceback deep in the run (or, for
    # --checkpoint-every -3, silently checkpoint every 3 supersteps).
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "--system", "GraFSoft"], ["serve", "--demo"]])
@pytest.mark.parametrize("ops", ["10001", "1e9", "1e400", "-1", "2.5"])
def test_crash_count_is_bounded_by_the_parser(command, ops, capsys):
    # ops=1e9 used to ask numpy for 10**9 exponential draws (8 GB) before
    # anything ran; the recovery driver gives up after 10 000 remounts anyway.
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main([*command, "--crash", f"seed=1,ops={ops}"])
    assert exc.value.code == 2
    assert "--crash" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", [["run", "--system", "GraFSoft"], ["serve", "--demo"]])
@pytest.mark.parametrize("spec,message", [
    ("seed=1e400", "bad value '1e400' for fault key 'seed'"),
    ("retries=1e400", "bad value '1e400' for fault key 'retries'"),
    ("ecc=inf", "bad value 'inf' for fault key 'ecc'"),
    ("ecc=3.7", "bad value '3.7' for fault key 'ecc'"),
    ("seed=1,seed=2", "duplicate fault spec key 'seed'"),
    ("ops=3,ops=7", "duplicate crash spec key 'ops'"),
])
def test_fault_spec_errors_are_usage_errors(command, spec, message, capsys):
    # The integer keys used to end in "OverflowError: cannot convert float
    # infinity to integer"; a repeated key silently kept the last value.
    flag = "--crash" if "crash" in message else "--faults"
    with pytest.raises(SystemExit) as exc:
        main([*command, flag, spec])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_crash_is_not_a_fault_spec_key(capsys):
    # The fault plan once carried a crash field that parse accepted by name
    # and the device then treated as a crash plan: "crash=1" died with
    # "AttributeError: 'float' object has no attribute 'schedule'".
    with pytest.raises(SystemExit) as exc:
        main(["run", "--system", "GraFSoft", "--dataset", "twitter",
              "--scale", "1.6e-5", "--faults", "crash=1"])
    assert exc.value.code == 2
    assert "unknown fault spec key 'crash'" in capsys.readouterr().err


@pytest.mark.parametrize("flag,spec,message", [
    ("--faults", "jitter=nan", "latency_jitter must be finite"),
    ("--faults", "jitter=inf", "latency_jitter must be finite"),
    ("--faults", "wear_ber=nan", "wear_ber_scale must be finite"),
    ("--faults", "wear_fail=nan", "wear_fail_scale must be finite"),
    ("--faults", "retry_scale=inf", "retry_ber_scale must be finite"),
    ("--crash", "gap=inf", "mean_gap must be finite"),
    ("--crash", "gap=nan", "mean_gap must be finite"),
    ("--crash", "gap=1e308", "crash op indices beyond any integer"),
])
def test_non_finite_plan_values_are_usage_errors(flag, spec, message, capsys):
    # jitter=nan used to print "simulated time | DNF" and exit 0, the other
    # fault values ran with them; the crash gaps were tracebacks
    # (OverflowError, ValueError) out of the device constructor.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--system", "GraFSoft", "--algorithm", "pagerank",
              "--dataset", "twitter", "--scale", "1.6e-5", flag, spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and message in err


def test_largest_crash_count_is_accepted():
    args = build_parser().parse_args(["run", "--crash", "seed=1,ops=10000"])
    assert args.crashes.crashes == 10_000 and len(args.crashes.schedule()) <= 10_000


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_with_timeline(capsys):
    code, out, _ = run_cli(capsys, "run", "--system", "GraFBoost",
                           "--algorithm", "bfs", "--dataset", "twitter",
                           "--scale", "6e-5", "--timeline")
    assert code == 0
    assert "Per-superstep timeline" in out
    assert "total simulated time" in out


def _metric(out, name):
    row = next(line for line in out.splitlines() if line.startswith(name))
    return row.split("|")[1].strip()


def test_run_timeline_composes_with_faults(capsys):
    # Regression: --timeline used to return through a separate path that
    # silently dropped --faults (and --crash/--sanitize/--checkpoint-every),
    # so fault plans never injected anything.  Now the timeline rides on the
    # same cell and the recovery counters must be nonzero.
    code, out, _ = run_cli(capsys, "run", "--system", "GraFBoost",
                           "--algorithm", "bfs", "--dataset", "twitter",
                           "--scale", "6e-5", "--timeline",
                           "--faults", "seed=3,ber=5e-5")
    assert code == 0
    assert "Per-superstep timeline" in out
    assert _metric(out, "corrected bit errors") != "0"


def test_run_timeline_composes_with_crash(capsys):
    code, out, _ = run_cli(capsys, "run", "--system", "GraFBoost",
                           "--algorithm", "bfs", "--dataset", "twitter",
                           "--scale", "6e-5", "--timeline",
                           "--crash", "at=300/2000")
    assert code == 0
    assert "Per-superstep timeline" in out
    assert _metric(out, "power losses") != "0"
    assert _metric(out, "remounts") != "0"


def test_run_timeline_rejected_for_baselines(capsys):
    code, out, err = run_cli(capsys, "run", "--system", "GraphLab",
                             "--algorithm", "bfs", "--dataset", "twitter",
                             "--scale", "6e-5", "--timeline")
    assert code == 2
    assert "--timeline only applies to the simulated flash stacks" in err
    assert out == ""


#: Values to give each flash-stack flag of ``run`` (none for a switch).
STACK_FLAG_VALUES = {
    "--faults": [["seed=3,ber=5e-5"]], "--crash": [["at=300"]],
    "--checkpoint-every": [["3"], ["0"]], "--workers": [["4"]],
    "--mode": [["densescan"]], "--timeline": [[]], "--sanitize": [[]],
}


@pytest.mark.parametrize("flag", [
    [name, *value]
    for name in (action.option_strings[0] for action
                 in build_parser().parse_args(["run"]).stack_flags)
    for value in STACK_FLAG_VALUES[name]
], ids=" ".join)
def test_run_flash_stack_flags_rejected_for_baselines(capsys, flag):
    # Every flag the parser declares for the flash stack, so a new one cannot
    # be silently ignored: --checkpoint-every and --workers used to exit 0.
    code, out, err = run_cli(capsys, "run", "--system", "FlashGraph",
                             "--algorithm", "bfs", "--dataset", "twitter",
                             "--scale", "6e-5", *flag)
    assert code == 2
    assert f"{flag[0]} only applies to the simulated flash stacks" in err
    assert out == ""


def test_run_crash_refuses_multi_phase_algorithms(capsys, monkeypatch):
    # Refused before the dataset is built, with the harness's list.
    import repro.cli

    monkeypatch.setattr(repro.cli, "build_graph", None)
    code, out, err = run_cli(capsys, "run", "--algorithm", "bc",
                             "--crash", "seed=1,ops=1")
    assert code == 2 and out == ""
    assert err == ("--crash supports pagerank, bfs, not bc (multi-phase "
                   "algorithms have no checkpoint protocol)\n")


def test_serve_demo(capsys):
    code, out, _ = run_cli(capsys, "serve", "--demo", "--dataset", "twitter",
                           "--scale", "1.6e-5")
    assert code == 0
    assert "Scheduler trace" in out
    assert "rejections=1" in out
    assert _metric(out, "jobs done") == "8"
    assert _metric(out, "jobs rejected") == "1"


def test_serve_prints_the_fault_counters(capsys):
    # They print through the same rows as run's; serve used to print none.
    code, out, _ = run_cli(capsys, "serve", "--demo", "--dataset", "twitter",
                           "--scale", "1.6e-5", "--faults", "seed=3,ber=5e-5")
    assert code == 0
    assert _metric(out, "corrected bit errors") != "0"
    assert _metric(out, "retired blocks") == "0"


def test_serve_with_explicit_jobs_and_quota(capsys):
    code, out, _ = run_cli(capsys, "serve", "--dataset", "twitter",
                           "--scale", "1.6e-5",
                           "--job", "t0:bfs",
                           "--job", "t0:neighborhood:v=0,depth=1",
                           "--quota", "t0=1/0/4")
    assert code == 0
    assert _metric(out, "jobs done") == "2"


def test_serve_requires_jobs(capsys):
    code, _, err = run_cli(capsys, "serve", "--dataset", "twitter",
                           "--scale", "1.6e-5")
    assert code == 2
    assert "--job" in err


def test_serve_rejects_bad_quota(capsys):
    code, _, err = run_cli(capsys, "serve", "--dataset", "twitter",
                           "--scale", "1.6e-5", "--job", "t0:bfs",
                           "--quota", "t0=oops")
    assert code == 2
    assert "quota" in err


def test_serve_self_referencing_vstate_fails_only_that_query(capsys):
    code, out, _ = run_cli(capsys, "serve", "--dataset", "twitter",
                           "--scale", "1.6e-5",
                           "--job", "t0:vstate:ref=svc-1,v=0")
    assert code == 0
    assert _metric(out, "jobs failed") == "1"
    assert "ref job svc-1 is not an analytics run" in out


def test_serve_round_limit_is_a_clean_abort(capsys, monkeypatch):
    # Label propagation has no superstep limit to check at arrival; on
    # twitter @ 1.6e-5 it runs 6 supersteps, past the 3 rounds.  The round
    # limit is its last deadline: the job is quarantined, the service is not.
    import functools

    from repro.service import scheduler

    monkeypatch.setattr(scheduler, "ServiceConfig", functools.partial(
        scheduler.ServiceConfig, max_rounds=3))
    code, out, err = run_cli(capsys, "serve", "--dataset", "twitter",
                             "--scale", "1.6e-5", "--job", "t0:cc")
    assert code == 0 and err == ""
    assert ("  svc-1 tenant=t0 kind=cc admission=admitted state=quarantined "
            "reason='round limit 3 reached'\n") in out
    assert _metric(out, "scheduler rounds") == "3"


def test_serve_refuses_a_job_arriving_after_the_last_round(capsys, monkeypatch):
    """An arrival at or past ``max_rounds`` is refused when it is submitted,
    not after the scheduler has idled up to the limit."""
    import functools

    from repro.service import scheduler

    monkeypatch.setattr(scheduler, "ServiceConfig", functools.partial(
        scheduler.ServiceConfig, max_rounds=3))
    code, out, err = run_cli(capsys, "serve", "--dataset", "twitter",
                             "--scale", "1.6e-5", "--job", "t0:pagerank",
                             "--job", "t1:neighborhood:v=0,depth=1@3")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert "ValueError: job arrives at round 3, past the service's last round 2" in err


def test_serve_rejects_bad_job_spec(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--dataset", "twitter", "--scale", "1.6e-5",
              "--job", "t0:unknownkind"])
    assert exc.value.code == 2
    assert "unknown job kind" in capsys.readouterr().err


@pytest.mark.parametrize("spec,message", [
    ("t0:pagerank@x", "bad @round suffix"),
    ("t0:pagerank:deadline=-2", "deadline_rounds must be >= 0"),
    ("t0:pagerank:deadline=soon", "deadline must be an integer"),
    ("t0:pagerank:iters=0", "iters must be an integer >= 1"),
    ("t0:pagerank:iters=-1", "iters must be an integer >= 1"),
    ("t0:bfs:root=-4", "root must be an integer >= 0"),
    ("t0:cc:retries=x", "retries must be an integer >= 0"),
    ("t0:bfs:root=1,root=2", "duplicate job spec key 'root'"),
    ("t0:pagerank:iterations=5", "unknown pagerank param 'iterations'"),
    ("t0:cc:root=3", "unknown cc param 'root'"),
    ("t0:neighborhood:v=0,depth=-1", "depth must be an integer >= 0"),
    ("t0:neighborhood:v=0,depth=abc", "depth must be an integer >= 0"),
    ("t0:neighborhood:depth=2", "neighborhood needs param 'v'"),
    ("t0:path:src=0", "path needs param 'dst'"),
    ("t0:path:src=0,dst=1,cap=-1", "cap must be an integer >= 0"),
    ("t1:vstate:v=0", "vstate needs param 'ref'"),
    ("t0:cancel", "cancel needs param 'ref'"),
])
def test_serve_job_spec_errors_are_usage_errors(spec, message, capsys,
                                                monkeypatch):
    # These used to exit 1 ("serve: aborted") after the dataset was built,
    # report done with 0 supersteps (iters), raise only at the job's first
    # failure (retries) or when the query ran (depth=abc, a missing v), or
    # drop an unknown key (iterations=5 ran one iteration).  Now they are
    # refused before any dataset work.
    import repro.cli

    monkeypatch.setattr(repro.cli, "build_graph", None)
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--dataset", "twitter", "--job", spec])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_serve_rejects_repeated_quota_tenant(capsys, monkeypatch):
    # The second --quota for a tenant used to replace the first silently.
    import repro.cli

    monkeypatch.setattr(repro.cli, "build_graph", None)
    code, _, err = run_cli(capsys, "serve", "--job", "t0:bfs",
                           "--quota", "t0=0/0/0", "--quota", "t0=1/0/8")
    assert code == 2
    assert err == "--quota given twice for tenant 't0'\n"


@pytest.mark.parametrize("quota", ["t0=-3/-1/-2", "t0=1/-1/8", "t0=1/1/-1"])
def test_serve_rejects_negative_quota(quota, capsys, monkeypatch):
    import repro.cli

    monkeypatch.setattr(repro.cli, "build_graph", None)
    code, _, err = run_cli(capsys, "serve", "--dataset", "twitter",
                           "--job", "t0:bfs", "--quota", quota)
    assert code == 2
    assert "must be >= 0" in err


#: Full stdout of ``run``, ``serve`` and ``compare`` on kron28 @ 1.6e-5,
#: with the exit code: the fault, crash and wear rows, a baseline that
#: completes and one that DNFs, and the service counters.  Any refactor of
#: the result records must leave every byte of it alone.
PINNED_OUTPUT = [
    (["run", "--system", "GraFSoft", "--algorithm", "bfs",
      "--faults", "seed=3,ber=5e-5,pfail=1e-2", "--crash", "seed=3,ops=3"], 0,
     """\
kron28 @ scale 1.6e-05: 4,096 vertices, 65,536 edges
metric               | value
---------------------+--------------
system               | GraFSoft
algorithm            | bfs
simulated time       | 5.3ms
supersteps           | 7
traversed edges      | 64,967
MTEPS                | 12.25
flash traffic        | 11.6 MB
peak memory          | 64.0 KB
mode trace           | sortreduce x7
corrected bit errors | 1,331
read retries         | 2
checksum recoveries  | 0
retired blocks       | 5
power losses         | 1
torn writes          | 0
remounts             | 1
device_bytes_written | 2.5 MB
device_lifetime_left | 100.0%
wear_evenness        | 1.000
bad_blocks           | 5
"""),
    (["run", "--system", "GraphLab", "--algorithm", "pagerank"], 1,
     """\
kron28 @ scale 1.6e-05: 4,096 vertices, 65,536 edges
GraphLab pagerank: DNF — out of memory: needs 5668944 B of 2199023 B DRAM
"""),
    (["run", "--system", "FlashGraph", "--algorithm", "bfs"], 0,
     """\
kron28 @ scale 1.6e-05: 4,096 vertices, 65,536 edges
metric          | value
----------------+-----------
system          | FlashGraph
algorithm       | bfs
simulated time  | 1.5ms
supersteps      | 6
traversed edges | 64,967
MTEPS           | 42.14
flash traffic   | 7.0 MB
peak memory     | 32.0 KB
"""),
    (["serve", "--demo", "--crash", "seed=3,ops=5",
      "--job", "tA:cancel:ref=svc-1"], 0,
     """\
Scheduler trace
  svc-1 tenant=tA kind=pagerank admission=admitted state=cancelled reason='cancelled by svc-10'
  svc-2 tenant=tB kind=cc admission=admitted state=done supersteps=7 modes=sortreduce x7 checksum=7d1ec0c1
  svc-3 tenant=tB kind=bfs admission=rejected state=rejected reason='flash bandwidth saturated and tenant queue full'
  svc-4 tenant=tA kind=neighborhood admission=admitted state=done checksum=6522df69
  svc-5 tenant=tA kind=path admission=admitted state=done found=False checksum=00000000
  svc-6 tenant=tA kind=vstate admission=admitted state=failed reason='ref job svc-1 ended cancelled'
  svc-7 tenant=tB kind=neighborhood admission=admitted state=done checksum=834960c0
  svc-8 tenant=tB kind=path admission=admitted state=done found=True checksum=16316a43
  svc-9 tenant=tB kind=vstate admission=admitted state=done checksum=20114bcb
  svc-10 tenant=tA kind=cancel admission=admitted state=done outcome=cancelled
  rejections=1
metric               | value
---------------------+----------
system               | GraFBoost
jobs done            | 7
jobs rejected        | 1
jobs failed          | 1
scheduler rounds     | 8
simulated time       | 5.3ms
flash traffic        | 6.6 MB
jobs cancelled       | 1
power losses         | 2
remounts             | 2
device_bytes_written | 10.3 MB
device_lifetime_left | 99.6%
wear_evenness        | 0.675
"""),
    (["compare", "--systems",
      "GraFBoost,GraFSoft,GraphLab,FlashGraph,X-Stream,GraphChi",
      "--algorithms", "pagerank,bfs,bc"], 0,
     """\
kron28 @ scale 1.6e-05 (simulated time; lower is faster)
algorithm | GraFBoost | GraFSoft | GraphLab | FlashGraph | X-Stream | GraphChi
----------+-----------+----------+----------+------------+----------+---------
pagerank  | 0.70 ms   | 2.42 ms  | DNF      | 0.72 ms    | 0.84 ms  | 2.68 ms
bfs       | 1.00 ms   | 3.59 ms  | DNF      | 1.54 ms    | 2.42 ms  | 16.05 ms
bc        | 1.06 ms   | 3.72 ms  | DNF      | 1.55 ms    | 4.35 ms  | 32.11 ms
"""),
]


@pytest.mark.parametrize("argv,code,stdout", PINNED_OUTPUT,
                         ids=[" ".join(argv[:3]) for argv, _, _ in PINNED_OUTPUT])
def test_cli_output_is_pinned(argv, code, stdout, capsys):
    got_code, out, _ = run_cli(capsys, *argv, "--scale", "1.6e-5")
    assert (got_code, out) == (code, stdout)
