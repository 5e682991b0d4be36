import numpy as np
import pytest

from siotsec import (
    AttackConfig,
    ImageTensor,
    RngSeed,
    ToyEncoder,
    attack,
    cosine_sim,
    defense_eval,
    encode,
    grad_similarity,
    random_image,
    run_attack,
)

FIXTURE_SEED = 13


@pytest.fixture(scope="module")
def fixture():
    enc = ToyEncoder.from_seed(16 * 16, 32, 8, RngSeed(FIXTURE_SEED, 0))
    src = random_image(16, 16, 1, RngSeed(FIXTURE_SEED, 1))
    target = random_image(16, 16, 1, RngSeed(FIXTURE_SEED, 2))
    return enc, src, target


def small_encoder(seed: int) -> ToyEncoder:
    return ToyEncoder.from_seed(8 * 8, 16, 6, RngSeed(seed, 0))


def test_encode_deterministic(fixture):
    enc, src, _ = fixture
    assert np.array_equal(encode(enc, src), encode(enc, src))
    assert np.all(np.isfinite(encode(enc, src)))


def test_encode_dimension_mismatch(fixture):
    enc, _, _ = fixture
    with pytest.raises(ValueError):
        encode(enc, random_image(8, 8, 1, RngSeed(0, 0)))


def test_zero_image_takes_bias_path(fixture):
    enc, _, _ = fixture
    zero = ImageTensor(np.zeros((16, 16, 1)))
    expected = enc.w2 @ np.tanh(enc.b1) + enc.b2
    assert np.allclose(encode(enc, zero), expected, atol=1e-15)


def test_small_perturbation_bounded_by_lipschitz(fixture):
    enc, src, _ = fixture
    bump = np.zeros_like(src.values)
    bump[3, 5, 0] = 1e-9
    moved = ImageTensor(src.values + bump)
    delta = np.linalg.norm(encode(enc, moved) - encode(enc, src))
    assert delta <= enc.lipschitz_bound() * 1e-9


def test_cosine_sim_basics():
    v = np.array([1.0, 2.0, -3.0])
    assert cosine_sim(v, v) == pytest.approx(1.0, abs=1e-12)
    assert cosine_sim(v, -v) == pytest.approx(-1.0, abs=1e-12)
    assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        cosine_sim(np.zeros(3), v)


def test_cosine_scale_invariance():
    rng = RngSeed(9, 0).generator()
    u = rng.normal(size=8)
    v = rng.normal(size=8)
    base = cosine_sim(u, v)
    for a in (1e-3, 1.0, 1e3):
        for b in (1e-3, 1.0, 1e3):
            assert cosine_sim(a * u, b * v) == pytest.approx(base, abs=1e-12)


def test_gradient_matches_central_differences():
    h = 1e-5
    for seed in range(5):
        enc = small_encoder(seed)
        img = random_image(8, 8, 1, RngSeed(seed, 1))
        reference = encode(enc, random_image(8, 8, 1, RngSeed(seed, 2)))
        grad = grad_similarity(enc, img, reference)
        rng = RngSeed(seed, 3).generator()
        for _ in range(20):
            i, j = rng.integers(0, 8, size=2)
            bump = np.zeros_like(img.values)
            bump[i, j, 0] = h
            up = cosine_sim(encode(enc, ImageTensor(np.clip(img.values + bump, 0, 1))), reference)
            dn = cosine_sim(encode(enc, ImageTensor(np.clip(img.values - bump, 0, 1))), reference)
            fd = (up - dn) / (2 * h)
            rel = abs(grad[i, j, 0] - fd) / max(abs(fd), abs(grad[i, j, 0]), 1e-12)
            assert rel <= 1e-4


def test_gradient_zero_at_own_reference(fixture):
    enc, src, _ = fixture
    grad = grad_similarity(enc, src, encode(enc, src))
    assert np.max(np.abs(grad)) < 1e-12


def test_gradient_invariant_to_reference_scale(fixture):
    enc, src, target = fixture
    reference = encode(enc, target)
    g1 = grad_similarity(enc, src, reference)
    g2 = grad_similarity(enc, src, 2.0 * reference)
    assert np.allclose(g1, g2, atol=1e-15)


def test_gradient_rejects_zero_reference(fixture):
    enc, src, _ = fixture
    with pytest.raises(ValueError):
        grad_similarity(enc, src, np.zeros(enc.output_dim))


@pytest.mark.parametrize("mode", ["targeted", "untargeted"])
def test_attack_makes_one_forward_and_one_backward_pass_per_iteration(fixture, monkeypatch,
                                                                      mode):
    enc, src, target = fixture
    reference = encode(enc, target if mode == "targeted" else src)
    calls = []
    for name in ("_activations", "_backprop"):
        fn = getattr(attack, name)
        monkeypatch.setattr(attack, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    trace = run_attack(enc, src, reference, AttackConfig(mode, 0.1, 0.004, 25))
    assert trace.steps == 25  # these iterates never cycle, so every step runs
    assert calls.count("_activations") == 26
    # untargeted starts at its own reference, a stationary point: one fallback step
    assert calls.count("_backprop") == 25 + (mode == "untargeted")


def every_step(enc, src, reference, cfg):
    """run_attack's trace and image, computed over all max_iters steps with no stop.

    Written with test-local numpy, not attack's helpers: the forward pass, the
    cosine (norms by np.linalg.norm) and its gradient, and the backprop.
    """
    def forward(x):
        t = np.tanh(enc.w1 @ x + enc.b1)
        return t, enc.w2 @ t + enc.b2

    def backprop(t, d_embedding):
        return enc.w1.T @ ((1.0 - t**2) * (enc.w2.T @ d_embedding))

    def cosine_and_grad(u):
        nu, nv = np.linalg.norm(u), np.linalg.norm(reference)
        dot = u @ reference
        return float(dot / (nu * nv)), reference / (nu * nv) - dot / (nu**3 * nv) * u

    sign = 1.0 if cfg.mode == "targeted" else -1.0
    x = src.flat()
    lo, hi = np.maximum(x - cfg.epsilon, 0.0), np.minimum(x + cfg.epsilon, 1.0)
    best, trace = None, []
    for _ in range(cfg.max_iters + 1):
        t, u = forward(x)
        s, d_cos = cosine_and_grad(u)
        if best is None or sign * s > sign * best:
            best, best_x = s, x
        trace.append(best)
        g = backprop(t, d_cos)
        if np.max(np.abs(g)) < attack._STATIONARY_EPS:
            g = backprop(t, reference)
        x = np.clip(x + sign * cfg.step_size * np.sign(g), lo, hi)
    return np.array(trace), best_x.reshape(src.values.shape)


# (height, width, channels, hidden_dim, embed_dim): the benchmark's two fixtures and a small one
ATTACK_SHAPES = [(8, 8, 1, 16, 6), (16, 16, 1, 32, 8), (32, 32, 3, 64, 16)]
# (epsilon, step_size, max_iters); None is AttackConfig's default budget
ATTACK_BUDGETS = {"default": None, "fine": (0.03, 0.001, 500), "coarse": (0.5, 0.05, 300),
                  "zero": (0.0, 0.01, 20), "one_step": (0.1, 0.004, 1),
                  "two_steps": (0.1, 0.004, 2), "no_cycle": (0.1, 0.004, 25)}


@pytest.mark.parametrize("budget", ATTACK_BUDGETS)
@pytest.mark.parametrize("mode", ["targeted", "untargeted"])
@pytest.mark.parametrize("shape", ATTACK_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_stopping_at_a_cycle_equals_running_every_step(shape, mode, budget):
    h, w, c, hidden, embed = shape
    enc = ToyEncoder.from_seed(h * w * c, hidden, embed, RngSeed(FIXTURE_SEED, 0))
    src = random_image(h, w, c, RngSeed(FIXTURE_SEED, 1))
    reference = encode(enc, random_image(h, w, c, RngSeed(FIXTURE_SEED, 2))
                       if mode == "targeted" else src)
    values = ATTACK_BUDGETS[budget]
    cfg = AttackConfig(mode) if values is None else AttackConfig(mode, *values)
    trace = run_attack(enc, src, reference, cfg)
    want_trace, want_image = every_step(enc, src, reference, cfg)
    assert np.array_equal(trace.best_similarity, want_trace)
    assert np.array_equal(trace.adversarial.values, want_image)
    assert len(trace.best_similarity) == cfg.max_iters + 1
    assert 1 <= trace.steps <= cfg.max_iters
    if budget == "default":
        assert trace.steps < cfg.max_iters  # these runs cycle well before 300 steps
    elif budget == "zero":
        assert trace.steps == 2  # the source is a fixed point, caught one step later
    elif budget == "no_cycle":
        assert trace.steps == cfg.max_iters


def test_attack_with_zero_budget_is_identity(fixture):
    enc, src, target = fixture
    cfg = AttackConfig("targeted", epsilon=0.0, step_size=0.01, max_iters=20)
    trace = run_attack(enc, src, encode(enc, target), cfg)
    assert np.array_equal(trace.adversarial.values, src.values)
    assert np.all(trace.best_similarity == trace.best_similarity[0])


def test_attack_iterates_stay_feasible(fixture):
    enc, src, target = fixture
    cfg = AttackConfig("targeted", epsilon=0.07, step_size=0.005, max_iters=60)
    trace = run_attack(enc, src, encode(enc, target), cfg)
    assert np.max(np.abs(trace.adversarial.values - src.values)) <= cfg.epsilon + 1e-12
    assert trace.adversarial.values.min() >= 0.0
    assert trace.adversarial.values.max() <= 1.0


def test_trace_monotone_best_so_far(fixture):
    enc, src, target = fixture
    cfg = AttackConfig("targeted", max_iters=80)
    up = run_attack(enc, src, encode(enc, target), cfg).best_similarity
    assert np.all(np.diff(up) >= 0.0)
    cfg = AttackConfig("untargeted", max_iters=80)
    down = run_attack(enc, src, encode(enc, src), cfg).best_similarity
    assert np.all(np.diff(down) <= 0.0)


def test_targeted_golden_fixture(fixture):
    enc, src, target = fixture
    trace = run_attack(enc, src, encode(enc, target), AttackConfig("targeted"))
    assert trace.best_similarity[0] < 0.2
    assert trace.final_similarity >= 0.9


def test_untargeted_golden_fixture(fixture):
    enc, src, _ = fixture
    trace = run_attack(enc, src, encode(enc, src), AttackConfig("untargeted"))
    assert trace.best_similarity[0] == pytest.approx(1.0, abs=1e-12)
    assert trace.final_similarity <= 0.5


def test_defense_on_identical_images(fixture):
    enc, src, _ = fixture
    before, after = defense_eval(enc, src, src, 1.5, 3)
    assert before == pytest.approx(1.0, abs=1e-12)
    assert after == pytest.approx(1.0, abs=1e-12)


def test_blur_defense_lowers_adversarial_similarity(fixture):
    enc, src, target = fixture
    trace = run_attack(enc, src, encode(enc, target), AttackConfig("targeted"))
    before, after = defense_eval(enc, trace.adversarial, target, 1.5, 3)
    assert before >= 0.9
    assert after <= before - 0.15


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig("sideways")
    with pytest.raises(ValueError):
        AttackConfig("targeted", epsilon=1.5)
    with pytest.raises(ValueError):
        AttackConfig("targeted", step_size=0.0)
    with pytest.raises(ValueError):
        AttackConfig("targeted", max_iters=0)


def test_encoder_validation():
    with pytest.raises(ValueError):
        ToyEncoder.from_seed(64, 16, 1, RngSeed(0, 0))
    with pytest.raises(ValueError):
        ToyEncoder(np.zeros((4, 8)), np.zeros(4), np.zeros((3, 5)), np.zeros(3))
    with pytest.raises(ValueError):
        ToyEncoder(np.full((4, 8), np.nan), np.zeros(4), np.zeros((3, 4)), np.zeros(3))
