import collections
import hashlib
import pickle

import numpy as np
import pytest

from codedgd import (ConfigurationError, OrderPolicy, StragglerProfile, TrainConfig,
                     apply_partial_update, build_rcs, codec, evaluate, generate_problem,
                     latency, run_plain_gd, run_training, simulate_recovery)
from codedgd.ages import AgeTable
from codedgd.decoder import RecoveryState, block_mask
from codedgd.experiments import preset_config, run_seed
from codedgd.trainer import EVAL_CHUNK, write_metrics_csv


def make_config(**overrides):
    defaults = dict(
        n_blocks=4, n_workers=4, n_iterations=50, eta=0.1, q=0.0,
        policy=OrderPolicy("static"), degrees=(1, 1),
        profile=StragglerProfile("homogeneous", 4, mu=10.0, alpha=0.01),
        seed=7)
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def desk_problem():
    return generate_problem(60, 12, 20, noise_std=0.0, seed=2)


def test_zero_tolerance_matches_plain_gd(desk_problem):
    result = run_training(desk_problem, make_config())
    _, trajectory, _ = run_plain_gd(desk_problem, eta=0.1, n_iterations=50)
    assert all(np.all(rec.r == 1) for rec in result.records)
    # theta after the final iteration matches exact GD
    assert np.allclose(result.theta, trajectory[-1], rtol=1e-9, atol=1e-12)
    losses = result.train_losses()
    gd_losses = [evaluate(th, desk_problem)[0] for th in trajectory[1:]]
    assert np.allclose(losses, gd_losses, rtol=1e-9)


def test_partial_update_full_recovery_is_gd_step(desk_problem):
    theta = np.random.default_rng(0).standard_normal(20)
    stepped = apply_partial_update(theta, np.ones(4, dtype=np.int8), desk_problem, eta=0.1)
    exact = theta - 0.1 * (desk_problem.W @ theta - desk_problem.b)
    assert np.allclose(stepped, exact, rtol=1e-12)


def test_partial_update_no_recovery_freezes_theta(desk_problem):
    theta = np.random.default_rng(1).standard_normal(20)
    out = apply_partial_update(theta, np.zeros(4, dtype=np.int8), desk_problem, eta=0.1)
    assert np.array_equal(out, theta)


def test_partial_update_single_coordinate():
    problem = generate_problem(10, 4, 4, noise_std=0.0, seed=5)
    theta = np.array([1.0, 2.0, 3.0, 4.0])
    value = problem.W[0] @ theta
    out = apply_partial_update(theta, np.array([1, 0, 0, 0], dtype=np.int8), problem, eta=0.1)
    expected_first = 1.0 - 0.1 * (value - problem.b[0])
    assert out[0] == pytest.approx(expected_first, rel=1e-12)
    assert np.array_equal(out[1:], theta[1:])


def test_evaluate_examples(desk_problem):
    train, test = evaluate(desk_problem.theta_star, desk_problem)
    assert train <= 1e-12 and test <= 1e-12
    train0, _ = evaluate(np.zeros(20), desk_problem)
    assert train0 == pytest.approx(0.5 * np.mean(desk_problem.y_train ** 2), rel=1e-12)
    rng = np.random.default_rng(3)
    theta = rng.standard_normal(20)
    ref_train = np.sum((desk_problem.y_train - desk_problem.X_train @ theta) ** 2) / (2 * 60)
    ref_test = np.sum((desk_problem.y_test - desk_problem.X_test @ theta) ** 2) / (2 * 12)
    train_r, test_r = evaluate(theta, desk_problem)
    assert train_r == pytest.approx(ref_train, rel=1e-10)
    assert test_r == pytest.approx(ref_test, rel=1e-10)


def test_evaluate_on_a_matrix_matches_column_calls():
    problem = generate_problem(500, 100, 200, noise_std=0.1, seed=9)
    thetas = np.random.default_rng(4).standard_normal((200, EVAL_CHUNK))
    train, test = evaluate(thetas, problem)
    assert train.shape == test.shape == (EVAL_CHUNK,)
    for col in range(EVAL_CHUNK):
        train_1d, test_1d = evaluate(thetas[:, col].copy(), problem)
        assert type(train_1d) is float and type(test_1d) is float
        assert train[col] == pytest.approx(train_1d, rel=1e-12, abs=0)
        assert test[col] == pytest.approx(test_1d, rel=1e-12, abs=0)


# Runs ending in one partial chunk of several widths, and runs on each side of
# the chunk boundaries.
@pytest.mark.parametrize("n_iterations", sorted({1, 31, 32, 33, 67, EVAL_CHUNK - 1, EVAL_CHUNK,
                                                 EVAL_CHUNK + 1, 2 * EVAL_CHUNK + 3}))
def test_chunked_losses_match_per_iteration_evaluate(desk_problem, n_iterations):
    # Replay masked GD from the recorded r, evaluating one iterate at a time.
    config = make_config(n_iterations=n_iterations, q=0.25, seed=5)
    result = run_training(desk_problem, config)
    assert len(result.records) == n_iterations
    theta = np.zeros(desk_problem.d)
    rows = zip(result.records, result.train_losses(), result.test_losses())
    for t, (rec, train_loss, test_loss) in enumerate(rows, 1):
        theta = apply_partial_update(theta, rec.r, desk_problem, config.eta)
        train, test = evaluate(theta, desk_problem)
        assert train_loss == pytest.approx(train, rel=1e-12, abs=0), t
        assert test_loss == pytest.approx(test, rel=1e-12, abs=0), t
    assert np.array_equal(result.theta, theta)


def test_iteration_stops_at_tolerance_target():
    problem = generate_problem(100, 20, 80, noise_std=0.0, seed=4)
    config = make_config(
        n_blocks=40, n_workers=40, n_iterations=10, q=0.3, degrees=(1, 2, 3),
        profile=StragglerProfile("persistent", 40, mu=10.0, alpha=0.01,
                                 persistent_set=frozenset(range(15)),
                                 alpha_straggler=10.0))
    result = run_training(problem, config)
    for rec in result.records:
        # the last ingest can cascade, so the count may slightly overshoot
        assert 28 <= rec.recovered_count <= 30
        assert rec.n_ingested <= 40 * 3


def test_wall_time_matches_independent_merge():
    # replay the RNG stream and recompute the stop time outside the trainer
    problem = generate_problem(20, 5, 8, noise_std=0.0, seed=6)
    config = make_config(n_blocks=4, n_workers=2, n_iterations=1, q=0.25,
                         degrees=(1, 1), seed=99)
    result = run_training(problem, config)

    ss = np.random.SeedSequence(99)
    rcs_seed, latency_seed = ss.spawn(2)
    shifts = np.random.default_rng(rcs_seed).choice(4, size=2, replace=False)
    rng = np.random.default_rng(latency_seed)
    arrivals = []
    for worker in range(2):
        y = rng.exponential(1 / 10.0)
        for s in (1, 2):
            block = (worker + shifts[s - 1]) % 4
            arrivals.append((s * (0.01 + y), block))
    arrivals.sort()
    seen = set()
    stop = None
    for time_s, block in arrivals:
        seen.add(block)
        if len(seen) >= 3:   # ceil(0.75 * 4)
            stop = time_s
            break
    assert result.records[0].wall_time == pytest.approx(stop, rel=1e-12)


def test_exhaustion_is_flagged_and_training_continues():
    problem = generate_problem(20, 5, 8, noise_std=0.0, seed=6)
    # 2 workers with one message each can cover at most 2 of 4 blocks
    config = make_config(n_blocks=4, n_workers=2, n_iterations=3, q=0.0,
                         degrees=(1,), seed=1)
    result = run_training(problem, config)
    assert result.exhausted_iterations == [1, 2, 3]
    assert len(result.records) == 3


def per_record_metrics_csv(result):
    """metrics.csv as the per-record formatter wrote it before the record table."""
    lines = ["t,wall_time,shift_used,recovered_count,train_loss,test_loss\n"]
    rows = zip(result.records, result.train_losses(), result.test_losses())
    for t, (rec, train_loss, test_loss) in enumerate(rows, 1):
        lines.append("%d,%.12g,%d,%d,%.12g,%.12g\n" % (
            t, rec.wall_time, rec.shift_used, int(rec.r.sum()), train_loss, test_loss))
    return "".join(lines).encode()


@pytest.mark.parametrize("overrides", [
    dict(n_iterations=2 * EVAL_CHUNK + 3, q=0.25, seed=5),
    dict(n_blocks=4, n_workers=2, n_iterations=3, q=0.0, degrees=(1,), seed=1)],
    ids=["desk", "exhausted"])
def test_record_table_against_per_record_formatter(desk_problem, tmp_path, overrides):
    result = run_training(desk_problem, make_config(**overrides))
    write_metrics_csv(result, tmp_path / "metrics.csv")
    assert (tmp_path / "metrics.csv").read_bytes() == per_record_metrics_csv(result)
    assert np.array_equal(result.records.recovered_count, result.records.r.sum(axis=1))
    assert not np.isnan(result.train_losses()).any()
    assert not np.isnan(result.test_losses()).any()


def test_profile_must_cover_every_worker():
    make_config(n_workers=2)   # a larger profile is allowed; workers beyond n_workers idle
    with pytest.raises(ConfigurationError, match="n_workers"):
        make_config(n_workers=5)


@pytest.mark.parametrize("override, key", [
    (dict(n_workers=0), "n_workers"),
    (dict(eta=np.inf), "eta"),
    (dict(eta=np.nan), "eta"),
    (dict(degrees=()), "degrees"),
], ids=["n_workers_0", "eta_inf", "eta_nan", "degrees_empty"])
def test_useless_train_config_fails_at_construction(override, key):
    with pytest.raises(ConfigurationError, match=key):
        make_config(**override)


def test_determinism_same_seed_same_run(desk_problem):
    config = make_config(n_iterations=30, q=0.25, seed=42)
    a = run_training(desk_problem, config)
    b = run_training(desk_problem, config)
    assert np.array_equal(a.recovery_matrix(), b.recovery_matrix())
    assert a.test_losses().tolist() == b.test_losses().tolist()
    assert [r.wall_time for r in a.records] == [r.wall_time for r in b.records]


def test_stop_time_nonincreasing_in_tolerance(desk_problem):
    # same RNG trace, static policy: a larger tolerance never finishes later
    walls = {}
    for q in (0.0, 0.25, 0.5):
        config = make_config(n_iterations=20, q=q, seed=11)
        result = run_training(desk_problem, config)
        walls[q] = np.array([rec.wall_time for rec in result.records])
    assert np.all(walls[0.25] <= walls[0.0])
    assert np.all(walls[0.5] <= walls[0.25])


def test_block_recovery_frequencies_balanced_under_rotation():
    problem = generate_problem(60, 12, 40, noise_std=0.0, seed=8)
    config = make_config(
        n_blocks=20, n_workers=20, n_iterations=300, q=0.3,
        policy=OrderPolicy("fixed_shift"), degrees=(1, 2, 3),
        profile=StragglerProfile("homogeneous", 20, mu=10.0, alpha=0.01),
        seed=13)
    result = run_training(problem, config)
    freqs = result.recovery_matrix().mean(axis=0)
    mean = freqs.mean()
    assert np.all(np.abs(freqs - mean) <= 0.2 * mean)


def test_adaptive_policy_reports_shifts(desk_problem):
    config = make_config(n_blocks=10, n_workers=10, n_iterations=40, q=0.4,
                         policy=OrderPolicy("adaptive", a_th=2), degrees=(1, 2),
                         profile=StragglerProfile("persistent", 10, mu=10.0, alpha=0.01,
                                                  persistent_set=frozenset(range(4)),
                                                  alpha_straggler=10.0),
                         seed=3)
    problem = generate_problem(60, 12, 20, noise_std=0.0, seed=2)
    result = run_training(problem, config)
    shifts = {rec.shift_used for rec in result.records}
    assert shifts <= set(range(3))
    assert len(shifts) > 1  # the shift actually moves under straggling


# Differential check on fixed seeds. The digests and final losses below were
# computed by a value-level decoder, which summed block products per message
# and subtracted decoded residuals. The recovery process must reproduce its
# outputs bit for bit; the losses may differ only by rounding, because the
# update uses exact block products instead of decoded residuals.

def trace_digest(result):
    """sha256 of r, shifts, wall times, messages ingested, exhausted list and ages."""
    h = hashlib.sha256()
    h.update(result.recovery_matrix().astype(np.int8).tobytes())
    for field in ("shift_used", "n_ingested"):
        h.update(np.array([getattr(rec, field) for rec in result.records],
                          dtype=np.int64).tobytes())
    h.update(np.array([rec.wall_time for rec in result.records], dtype=np.float64).tobytes())
    h.update(np.array(result.exhausted_iterations, dtype=np.int64).tobytes())
    h.update(result.ages.history.astype(np.int64).tobytes())
    return h.hexdigest()


GRID_POLICIES = {"static": OrderPolicy("static"),
                 "fixed_shift": OrderPolicy("fixed_shift"),
                 "adaptive": OrderPolicy("adaptive", a_th=2)}
GRID_PROFILES = {
    "homogeneous": StragglerProfile("homogeneous", 20, mu=10.0, alpha=0.01),
    "persistent": StragglerProfile("persistent", 20, mu=10.0, alpha=0.01,
                                   persistent_set=frozenset(range(7)),
                                   alpha_straggler=10.0),
    "markov": StragglerProfile("markov", 20, mu=10.0, alpha=0.01, p=0.05,
                               mu_slow=2.0, initial_slow=frozenset(range(7))),
}


def differential_runs():
    """(label, TrainResult) for every configuration pinned in PINNED_RUNS."""
    problem = generate_problem(60, 12, 40, noise_std=0.1, seed=2)
    for i, (policy, profile, q) in enumerate(
            (p, f, q) for p in GRID_POLICIES for f in GRID_PROFILES for q in (0.0, 0.3)):
        config = make_config(n_blocks=20, n_workers=20, n_iterations=60, q=q,
                             policy=GRID_POLICIES[policy], degrees=(1, 2, 3),
                             profile=GRID_PROFILES[profile], seed=100 + i)
        yield "%s/%s/q=%g" % (policy, profile, q), run_training(problem, config)

    exhausted = make_config(n_blocks=4, n_workers=2, n_iterations=3, q=0.0,
                            degrees=(1,), seed=1)
    yield "exhausted", run_training(generate_problem(20, 5, 8, noise_std=0.0, seed=6),
                                    exhausted)

    cfg = preset_config("fig3")
    fig3 = generate_problem(cfg.n_train, cfg.n_test, cfg.d, cfg.noise_std, seed=cfg.seed)
    for p_idx, policy in enumerate(cfg.policies):
        config = cfg.train_config(policy, run_seed(cfg.seed, p_idx, 0))
        yield "fig3/" + policy.name, run_training(fig3, config)


PINNED_RUNS = {
    'static/homogeneous/q=0': ('6dacace4b759d17824ccb77e198dcb506acf95d9b34770b1e494a2cc3668b6ba',
         0.005219898765825409, 0.12946848932549584),
    'static/homogeneous/q=0.3': ('16c8a21af592287c72f2fd7189d305eb7721743f0af309e524cc5bd43063e749',
         0.007977734612361365, 0.21337628479606954),
    'static/persistent/q=0': ('cfcb74a54066812c4578ffe348a63dcf120165991735317a1bcb73564560a673',
         0.0052198987658254115, 0.1294684893254959),
    'static/persistent/q=0.3': ('89b0e0948897aa29faf119104fc237b9e2c8a33a1a5cde9759c891faf6074765',
         0.007398821205576014, 0.18406757227810824),
    'static/markov/q=0': ('9c7d7b44c5f22ed5e3f22f30f456559ffbb97c431b0ec99e2d9906e62653c8bd',
         0.005219898765825408, 0.12946848932549584),
    'static/markov/q=0.3': ('11d514bc7b7c9bba26570499f6508f42e0540b926226dd23f484f4102139f808',
         0.007323987482735033, 0.1960786818258893),
    'fixed_shift/homogeneous/q=0': ('26a5ee26823cfbc9b2fb5ff0590381d2d9f2d48c8533357a5dca0be23a93c48a',
         0.005219898765825409, 0.1294684893254959),
    'fixed_shift/homogeneous/q=0.3': ('720cca25a9bc7911ecd865f9a09c1407b4a677dfe4065d4fcc1275341639600f',
         0.007829751404804573, 0.21486127833950666),
    'fixed_shift/persistent/q=0': ('7f120c6fa6f7e0efe30b332cae02ce158395a01c21b9f66453f74dcf5c28f9bc',
         0.005219898765825407, 0.12946848932549584),
    'fixed_shift/persistent/q=0.3': ('566903fb8616e717b8749c0878b7166128dae2cd12eeb8dc890063a2dcb32e4c',
         0.007427025724955002, 0.18586218937515095),
    'fixed_shift/markov/q=0': ('1ded0248e176eea210b095eeab77ca541a814a59dc82fa6d324e5ec43a62c0e4',
         0.0052198987658254046, 0.12946848932549584),
    'fixed_shift/markov/q=0.3': ('385b794cb0408a54ba84a8578a3f3a2916b2519e0945bfb83b0724f69e480d20',
         0.0077084051914474965, 0.21165232675263645),
    'adaptive/homogeneous/q=0': ('6d4b6c1bdc5445719f5959963182e47143c7961951e088db19575a06bff74e5c',
         0.005219898765825409, 0.12946848932549576),
    'adaptive/homogeneous/q=0.3': ('e74879cd9a0ffbd2600de58211b48a7a755be38257aca81419295444dc89e20a',
         0.007413137855325996, 0.1857377912267938),
    'adaptive/persistent/q=0': ('933cf3e8748d9a174ab2b6bdd522727f49756a19abcf6074a3af5853bc18c589',
         0.00521989876582541, 0.12946848932549587),
    'adaptive/persistent/q=0.3': ('0cf7c6ed8334b77e496fdfc558d758ec93b8151a55d37c97520fb1bc7879b611',
         0.00847026913516707, 0.24077631396954405),
    'adaptive/markov/q=0': ('a9ffef6c00bdb543ffc45c47424078551876bf7ea51fe749e646a67f89aa2f06',
         0.005219898765825409, 0.12946848932549584),
    'adaptive/markov/q=0.3': ('5e2470782fe8e019576fba388ce5572ecf7ce9faf120b718bc25b09c806641b7',
         0.006727970772605909, 0.16393430876427714),
    'exhausted': ('f9ffab0c9d24d37c5e97f7c76b2b3cc5d89b54cffe57c3ea28c1a23e06cedf39',
         0.3505864561781892, 1.6834726529574595),
    'fig3/rcs': ('f888ef11a3f680bc880bc000d299c27c73e574875e0f7217986f9f3a4a5c15ee',
         4.036363544434332e-06, 0.0002018754500699927),
    'fig3/rcs1': ('90f7d662eb10f730ba5a5dca0cc9454048b0a7a661f058dcb7daa402183af1bb',
         2.7741093135826664e-06, 0.000132339374772067),
    'fig3/adaptive2': ('f378ca47cc290cda4077e14649972fb8dbb904d537184b57b7ebe936b3e4bf78',
         2.5076278168210888e-06, 0.00012169844156672099),
}


def test_differential_against_value_level_decoder():
    seen = {}
    for label, result in differential_runs():
        seen[label] = (trace_digest(result), result.train_losses()[-1],
                       result.test_losses()[-1])
    assert sorted(seen) == sorted(PINNED_RUNS)
    for label, (digest, train, test) in PINNED_RUNS.items():
        got_digest, got_train, got_test = seen[label]
        assert got_digest == digest, label
        assert got_train == pytest.approx(train, rel=1e-12, abs=0), label
        assert got_test == pytest.approx(test, rel=1e-12, abs=0), label


# run_training as it was before masked GD moved to the first read of a loss:
# the optimizer ran straight after the recovery process.

def eager_run_training(problem, config):
    """theta_T and the train and test losses of the eager loop."""
    rcs_seed, latency_seed = np.random.SeedSequence(config.seed).spawn(2)
    assignment = build_rcs(config.n_blocks, config.n_workers, config.memory,
                           np.random.default_rng(rcs_seed))
    records, _ = simulate_recovery(config, assignment, np.random.default_rng(latency_seed))
    theta = np.zeros(problem.d)
    chunk = np.empty((problem.d, EVAL_CHUNK), order="F")
    train, test = np.full(len(records), np.nan), np.full(len(records), np.nan)
    for t, r in enumerate(records.r):
        theta = apply_partial_update(theta, r, problem, config.eta)
        col = t % EVAL_CHUNK
        chunk[:, col] = theta
        if col == EVAL_CHUNK - 1 or t == len(records) - 1:
            train[t - col:t + 1], test[t - col:t + 1] = evaluate(chunk[:, :col + 1], problem)
    return theta, train, test


def test_deferred_optimizer_matches_eager_loop():
    checked = []
    for label, result in differential_runs():
        if "homogeneous" in label:
            continue
        want_theta, want_train, want_test = eager_run_training(result.problem, result.config)
        assert result.theta.tobytes() == want_theta.tobytes(), label
        assert result.train_losses().tobytes() == want_train.tobytes(), label
        assert result.test_losses().tobytes() == want_test.tobytes(), label
        checked.append(label)
        if label == "exhausted":   # the fig3 runs that follow are not part of this check
            break
    assert len(checked) == 13


def test_losses_are_computed_once_on_first_read(desk_problem, optimizer_calls):
    n_iterations = 2 * EVAL_CHUNK + 3
    result = run_training(desk_problem, make_config(n_iterations=n_iterations, q=0.25))
    assert optimizer_calls == {}
    first = result.test_losses()
    assert optimizer_calls == {"apply_partial_update": n_iterations,
                               "evaluate": -(-n_iterations // EVAL_CHUNK)}
    assert result.problem is None
    before = dict(optimizer_calls)
    assert result.test_losses() is first
    result.train_losses(), result.theta
    assert optimizer_calls == before


def test_pickling_drops_the_problem_and_runs_no_optimizer(optimizer_calls):
    problem = generate_problem(100, 20, 200, noise_std=0.0, seed=3)
    result = run_training(problem, make_config())
    unread = pickle.dumps(result)
    assert optimizer_calls == {}
    assert len(unread) < problem.W.nbytes
    copy = pickle.loads(unread)
    assert copy.problem is None and result.problem is problem
    with pytest.raises(ValueError, match="problem"):
        copy.theta
    copy.problem = problem
    assert copy.test_losses().tobytes() == result.test_losses().tobytes()
    read = pickle.loads(pickle.dumps(result))
    assert read.train_losses().tobytes() == result.train_losses().tobytes()
    assert read.theta.tobytes() == result.theta.tobytes()


# The recovery loop as it was before a run's latencies were drawn up front:
# per iteration, a Markov step, a draw, an argsort and a completion test after
# every ingest. simulate_recovery must reproduce it bit for bit, and leave the
# generator in the same state.

def per_iteration_recovery(config, assignment, rng):
    k, n_workers = config.n_blocks, config.n_workers
    n_messages = len(config.degrees)
    ages = AgeTable(k)
    markov = config.profile.initial_markov()
    params = latency.worker_params(config.profile, n_workers, n_messages, markov)
    codewords = {}
    adaptive_shift = 0
    records = np.recarray(config.n_iterations, dtype=[
        ("r", np.int8, (k,)), ("shift_used", np.int64), ("wall_time", np.float64),
        ("n_ingested", np.int64), ("recovered_count", np.int64)])
    for t in range(1, config.n_iterations + 1):
        if markov is not None:
            markov = latency.step_markov(markov, rng)
            params = latency.worker_params(config.profile, n_workers, n_messages, markov)
        shift = codec.shift_for_iteration(config.policy, t, config.memory, adaptive_shift)
        if shift not in codewords:
            codewords[shift] = [block_mask(members, k) for members in
                                codec.encode(codec.apply_order(assignment, shift), config.degrees)]
        masks = codewords[shift]
        times = latency.sample_completion_times(params, rng).ravel()
        order = np.argsort(times, kind="stable").tolist()
        state = RecoveryState(k, config.q)
        for msg in order:
            state.ingest(masks[msg])
            if state.is_complete():
                break
        arrived = order[:state.n_ingested]
        wall_time = times[arrived[-1]] if arrived else 0.0
        r, _ = state.finalize()
        ages.update(r)
        if config.policy.kind == "adaptive":
            responsive = {msg // n_messages for msg in arrived}
            adaptive_shift = codec.select_adaptive_shift(
                assignment, ages.current, config.policy.a_th, responsive)
        records[t - 1] = (r, shift, wall_time, state.n_ingested, state.n_recovered)
    return records, ages


# Stragglers on both sides of n_workers = 13, so the profile covers workers the run drops.
WIDER_PROFILES = {
    "homogeneous": StragglerProfile("homogeneous", 20, mu=10.0, alpha=0.01),
    "persistent": StragglerProfile("persistent", 20, mu=10.0, alpha=0.01,
                                   persistent_set=frozenset({0, 5, 15, 19}),
                                   alpha_straggler=10.0),
    "markov": StragglerProfile("markov", 20, mu=10.0, alpha=0.01, p=0.2, mu_slow=2.0,
                               initial_slow=frozenset({1, 14, 18})),
}


def oracle_configs():
    configs = {}
    for i, (policy, profile, q) in enumerate(
            (p, f, q) for p in GRID_POLICIES for f in GRID_PROFILES for q in (0.1, 0.3)):
        configs["%s/%s/q=%g" % (policy, profile, q)] = make_config(
            n_blocks=20, n_workers=20, n_iterations=60, q=q, policy=GRID_POLICIES[policy],
            degrees=(1, 2, 3), profile=GRID_PROFILES[profile], seed=300 + i)
    for i, (name, profile) in enumerate(WIDER_PROFILES.items()):
        configs["wider/" + name] = make_config(
            n_blocks=20, n_workers=13, n_iterations=60, q=0.2, policy=GRID_POLICIES["adaptive"],
            degrees=(1, 2, 3), profile=profile, seed=400 + i)
    configs["exhausted"] = make_config(n_blocks=4, n_workers=2, n_iterations=3, q=0.0,
                                       degrees=(1,), seed=1)
    return configs


ORACLE_CONFIGS = oracle_configs()


@pytest.mark.parametrize("label", sorted(ORACLE_CONFIGS))
def test_hoisted_recovery_matches_per_iteration_loop(label):
    config = ORACLE_CONFIGS[label]
    assignment = build_rcs(config.n_blocks, config.n_workers, config.memory, seed=config.seed)
    new_rng, old_rng = np.random.default_rng(config.seed), np.random.default_rng(config.seed)
    records, ages = simulate_recovery(config, assignment, new_rng)
    want_records, want_ages = per_iteration_recovery(config, assignment, old_rng)
    assert records.tobytes() == want_records.tobytes()
    assert np.array_equal(ages.history, want_ages.history)
    assert new_rng.random() == old_rng.random()


@pytest.mark.parametrize("profile", sorted(GRID_PROFILES))
def test_traced_decoder_and_age_calls_per_run(monkeypatch, profile):
    # perfbench's per-layer counts wrap these names; the loop must keep calling them.
    calls = collections.Counter()
    for owner, name in ((RecoveryState, "ingest"), (RecoveryState, "finalize"),
                        (AgeTable, "update")):
        def counted(*args, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    config = make_config(n_blocks=20, n_workers=20, n_iterations=40, q=0.3,
                         policy=GRID_POLICIES["adaptive"], degrees=(1, 2, 3),
                         profile=GRID_PROFILES[profile], seed=5)
    assignment = build_rcs(config.n_blocks, config.n_workers, config.memory, seed=5)
    records, _ = simulate_recovery(config, assignment, np.random.default_rng(5))
    assert calls["ingest"] == records.n_ingested.sum() > 0
    assert calls["finalize"] == calls["update"] == config.n_iterations
