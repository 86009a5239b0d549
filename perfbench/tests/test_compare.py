"""``judge`` verdicts on hand-built pair lists."""

from perfbench.compare import judge, judge_exact, measured_bound, pair_runs

PARENT = [2.00, 2.02, 1.99, 2.01, 2.03, 1.98, 2.00, 2.02, 2.01, 1.99, 2.00, 2.01]


def _pairs(change):
    return list(zip(PARENT, change))


def test_gain_needs_wins_and_distance():
    faster = [p * 0.90 for p in PARENT]
    assert judge(_pairs(faster), better="lower", bound=0.10) == "gain"


def test_no_gain_with_fewer_than_ten_pairs():
    faster = [p * 0.90 for p in PARENT]
    assert judge(_pairs(faster)[:9], better="lower", bound=0.10) == "unchanged"


def test_no_gain_inside_the_parents_own_spread():
    barely = [p - 0.001 for p in PARENT]      # wins every pair, by nothing
    assert judge(_pairs(barely), better="lower", bound=0.10) == "unchanged"


def test_no_gain_when_too_many_pairs_are_lost():
    mixed = [p * (0.9 if i % 4 else 1.05) for i, p in enumerate(PARENT)]
    assert judge(_pairs(mixed), better="lower", bound=0.10) == "unchanged"


def test_regression_beyond_the_bound():
    slower = [p * 1.12 for p in PARENT]
    assert judge(_pairs(slower), better="lower", bound=0.10) == "regressed"
    assert judge(_pairs(slower), better="lower", bound=0.15) == "unchanged"


def test_higher_is_better_flips_the_direction():
    assert judge(_pairs([p * 0.8 for p in PARENT]), better="higher",
                 bound=0.10) == "regressed"
    assert judge(_pairs([p * 1.2 for p in PARENT]), better="higher",
                 bound=0.10) == "gain"


def test_noisy_parent_reads_unresolved():
    noisy = [1.0, 1.6, 1.1, 1.7, 1.0, 1.8, 1.2, 1.6, 1.1, 1.7]
    same = list(noisy)
    assert judge(list(zip(noisy, same)), better="lower", bound=0.10) == "unresolved"
    # ... unless every change run beats every parent run.
    clear = [0.5] * len(noisy)
    assert judge(list(zip(noisy, clear)), better="lower", bound=0.10) == "gain"


def test_exact_metrics_change_on_the_first_differing_pair():
    assert judge_exact([(39.0, 39.0), (39.0, 39.0)]) == "same"
    assert judge_exact([(39.0, 39.0), (39.0, 40.0)]) == "changed"
    assert judge_exact([]) == "no-data"
    assert judge([], better="lower", bound=0.1) == "no-data"


def _run(i, **flags):
    return {"workload": "toy", "metrics": {"job_s_p50": float(i)}, **flags}


def test_a_traced_or_noisy_run_takes_its_partner_with_it():
    parent = [_run(0), _run(1, trace=1), _run(2), _run(3)]
    change = [_run(10), _run(11), _run(12, noisy=True), _run(13)]
    pairs = pair_runs(parent, change)
    assert [(p["metrics"]["job_s_p50"], c["metrics"]["job_s_p50"])
            for p, c in pairs] == [(0.0, 10.0), (3.0, 13.0)]


def test_measured_bound_is_twice_the_widest_gap_and_at_least_five_percent():
    assert measured_bound([2.0, 2.25, 2.5]) == 0.5
    assert measured_bound([2.0, 2.01]) == 0.05
