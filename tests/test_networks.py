import numpy as np
import pytest

from tomcat.corpus import Vocabulary
from tomcat.evaluation import EvaluationError, SyntheticSpec
from tomcat.networks import (
    Network,
    build_networks,
    network_table,
    sample_prior,
    state_shapes,
    top_word_ids,
    top_words,
    topic_word_distributions,
)
from tomcat.nn import BatchNorm, LeakyReLU, Linear, Softmax, Tensor
from tomcat.training import ConfigError, TrainConfig


def rng(seed=0):
    return np.random.default_rng(seed)


def build_one(name, rng, hidden, words=1, topics=1, classes=0):
    """The network of that name in the table, built alone from rng."""
    table = [row for row in network_table(words, topics, classes) if row[0] == name]
    return build_networks(table, hidden, rng)[name]


# The per-network factories that network_table and build_networks replaced,
# kept as their oracle.
def make_encoder(num_words, hidden, num_topics, rng):
    return Network("E", [
        Linear(num_words, hidden, rng),
        LeakyReLU(),
        BatchNorm(hidden),
        Linear(hidden, num_topics, rng),
        Softmax(),
    ])


def make_generator(num_topics, hidden, num_words, rng):
    return Network("G", [
        Linear(num_topics, hidden, rng),
        LeakyReLU(),
        BatchNorm(hidden),
        Linear(hidden, num_words, rng),
        Softmax(),
    ])


def make_critic(name, in_dim, hidden, rng):
    return Network(name, [
        Linear(in_dim, hidden, rng),
        LeakyReLU(),
        BatchNorm(hidden),
        Linear(hidden, 1, rng),
    ])


def make_classifier(num_topics, hidden, num_classes, rng):
    return Network("C", [
        Linear(num_topics, hidden, rng),
        LeakyReLU(),
        BatchNorm(hidden),
        Linear(hidden, num_classes, rng),
        Softmax(),
    ])


def layer_fields(layer):
    """Every attribute of a layer, arrays and tensors as bytes."""
    out = {}
    for key, value in vars(layer).items():
        if isinstance(value, Tensor):
            value = value.data
        out[key] = (value.dtype, value.shape, value.tobytes()) if isinstance(
            value, np.ndarray) else value
    return out


class TestNetworkTable:
    @pytest.mark.parametrize("num_classes", [0, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_builder_matches_factories(self, num_classes, seed):
        v, h, k = 11, 6, 4
        ours, theirs = rng(seed), rng(seed)
        built = build_networks(network_table(v, k, num_classes), h, ours)
        oracle = [make_encoder(v, h, k, theirs), make_generator(k, h, v, theirs),
                  make_critic("D_X", v, h, theirs), make_critic("D_Z", k, h, theirs)]
        if num_classes:
            oracle.append(make_classifier(k, h, num_classes, theirs))
        assert list(built) == [net.name for net in oracle]
        for net, want in zip(built.values(), oracle):
            assert net.name == want.name
            assert [type(layer) for layer in net.layers] == [type(layer) for layer in want.layers]
            assert [layer_fields(a) for a in net.layers] == [layer_fields(b) for b in want.layers]
            assert list(net.state()) == list(want.state())
            assert net.widths == (want.layers[0].in_dim, h, want.layers[3].out_dim)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_table_rows(self):
        assert network_table(30, 5) == [("E", 30, 5, True), ("G", 5, 30, True),
                                        ("D_X", 30, 1, False), ("D_Z", 5, 1, False)]
        assert network_table(30, 5, 3)[4:] == [("C", 5, 3, True)]

    def test_one_network_draws_as_its_factory(self):
        for name, factory in (("E", lambda r: make_encoder(9, 5, 3, r)),
                              ("G", lambda r: make_generator(3, 5, 9, r)),
                              ("D_X", lambda r: make_critic("D_X", 9, 5, r)),
                              ("C", lambda r: make_classifier(3, 5, 4, r))):
            ours, theirs = rng(3), rng(3)
            net = build_one(name, ours, 5, words=9, topics=3, classes=4)
            want = factory(theirs)
            assert [layer_fields(a) for a in net.layers] == [layer_fields(b) for b in want.layers]
            assert ours.bit_generator.state == theirs.bit_generator.state


def num_parameters(net):
    return sum(p.data.size for p in net.parameters())


class TestArchitecture:
    def test_encoder_parameter_count(self):
        v, h, k = 30, 7, 5
        net = build_one("E", rng(), h, words=v, topics=k)
        assert num_parameters(net) == v * h + h + 2 * h + h * k + k

    def test_generator_parameter_count(self):
        k, h, v = 4, 9, 21
        net = build_one("G", rng(), h, words=v, topics=k)
        assert num_parameters(net) == k * h + h + 2 * h + h * v + v

    def test_critic_parameter_count(self):
        s, h = 13, 6
        net = build_one("D_X", rng(), h, words=s)
        assert num_parameters(net) == s * h + h + 2 * h + h * 1 + 1

    def test_classifier_parameter_count(self):
        k, h, l = 5, 8, 3
        net = build_one("C", rng(), h, topics=k, classes=l)
        assert num_parameters(net) == k * h + h + 2 * h + h * l + l

    def test_simplex_closure_under_random_weights(self):
        # softmax-terminated stacks stay on the simplex for arbitrary input
        r = rng(1)
        for trial in range(10):
            net = build_one("E", rng(trial), 6, words=12, topics=4)
            for p in net.parameters():
                p.data *= r.uniform(-30, 30)
            x = r.normal(scale=10, size=(8, 12))
            y, _ = net.forward(x, train=True)
            assert np.all(y >= 0)
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-9)

    def test_encoder_rows_on_simplex(self):
        net = build_one("E", rng(2), 5, words=10, topics=3)
        x = rng(3).uniform(size=(6, 10))
        y, _ = net.forward(x, train=True)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(y >= 0)

    def test_eval_mode_is_batch_composition_invariant(self):
        r = rng(4)
        net = build_one("E", r, 5, words=10, topics=3)
        net.forward(r.uniform(size=(32, 10)), train=True)  # populate running stats
        doc = r.uniform(size=10)
        with_a = np.vstack([doc, r.uniform(size=(3, 10))])
        with_b = np.vstack([doc, r.uniform(size=(7, 10))])
        ya, _ = net.forward(with_a, train=False)
        yb, _ = net.forward(with_b, train=False)
        np.testing.assert_array_equal(ya[0], yb[0])

    def test_critic_scores_unbounded(self):
        net = build_one("D_X", rng(5), 5, words=8)
        for p in net.parameters():
            p.data *= 40.0
        scores, _ = net.forward(rng(6).normal(size=(16, 8)), train=True)
        assert scores.shape == (16, 1)
        assert np.any(scores < 0) or np.any(scores > 1)

    @pytest.mark.parametrize("num_classes", [0, 3])
    def test_state_shapes_are_the_built_arrays(self, num_classes):
        table = network_table(7, 4, num_classes)
        nets = build_networks(table, 5, rng(7))
        built = [(f"{name}.{key}", arr.shape) for name, net in nets.items()
                 for key, arr in net.state().items()]
        assert list(state_shapes(table, 5).items()) == built


class TestDirichletPrior:
    def test_single_topic_gives_ones(self):
        z = sample_prior(1, 0.3, 50, rng(9))
        np.testing.assert_array_equal(z, np.ones((50, 1)))

    def test_rows_sum_to_one(self):
        z = sample_prior(7, 0.2, 500, rng(10))
        np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(z >= 0)

    def test_monte_carlo_mean(self):
        # symmetric Dirichlet has per-coordinate mean 1/K
        z = sample_prior(5, 0.5, 20000, rng(11))
        np.testing.assert_allclose(z.mean(axis=0), 0.2, atol=0.01)

    def test_monte_carlo_variance(self):
        # K=2, alpha=0.5: marginal is Beta(0.5, 0.5) with variance
        # (K-1) / (K^2 (K alpha + 1)) = 1/8
        z = sample_prior(2, 0.5, 50000, rng(12))
        var = z[:, 0].var()
        assert abs(var - 0.125) < 0.0125

    def test_invalid_parameters(self):
        # both makers of a prior reject its concentration when they are made
        for alpha in (0.0, -0.5):
            with pytest.raises(ConfigError, match="alpha must be positive"):
                TrainConfig(num_topics=3, alpha=alpha)
            with pytest.raises(EvaluationError, match="doc_topic_alpha"):
                SyntheticSpec(num_topics=3, words_per_topic=2, num_docs=4, doc_length=5,
                              doc_topic_alpha=alpha, seed=0)
        with pytest.raises(ValueError):
            sample_prior(3, 0.5, 0, rng(13))


class TestTopicExtraction:
    def test_distribution_shape_and_simplex(self):
        gen = build_one("G", rng(14), 6, words=11, topics=4)
        t = topic_word_distributions(gen)
        assert t.shape == (4, 11)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)

    def test_eval_mode_probe_is_deterministic(self):
        gen = build_one("G", rng(15), 6, words=11, topics=4)
        np.testing.assert_array_equal(topic_word_distributions(gen),
                                      topic_word_distributions(gen))

    def test_top_words_one_hot(self):
        vocab = Vocabulary(["aa", "bb", "cc"])
        row = np.array([0.0, 1.0, 0.0])
        assert top_words(row, vocab, 1) == ["bb"]

    def test_top_words_uniform_tie_break(self):
        vocab = Vocabulary(["aa", "bb", "cc", "dd"])
        row = np.full(4, 0.25)
        assert top_words(row, vocab, 3) == ["aa", "bb", "cc"]

    def test_top_words_sorted(self):
        vocab = Vocabulary(["aa", "bb", "cc"])
        row = np.array([0.5, 0.3, 0.2])
        assert top_words(row, vocab, 2) == ["aa", "bb"]

    def test_top_words_n_out_of_range(self):
        vocab = Vocabulary(["aa", "bb", "cc"])
        row = np.full(3, 1 / 3)
        with pytest.raises(ValueError):
            top_words(row, vocab, 4)
        with pytest.raises(ValueError):
            top_words(row, vocab, 0)

    @pytest.mark.parametrize("levels", [
        [0.25, 0.5, 0.25, 0.0],                  # heavy ties
        [0.0, -0.0, 1e-300, 0.5],                # signed zeros tie with each other
        [np.nan, 0.5, 0.0, -0.0],                # NaN ranks last
        [np.nan],                                # a NaN row
        [np.inf, -np.inf, 1.0, 1.0],
    ])
    def test_top_word_ids_equal_stable_argsort(self, levels):
        # the ids found by partial selection are those of a full stable sort
        draw = rng(len(levels))
        for size in (1, 2, 5, 64, 300):
            row = draw.choice(np.array(levels), size=size)
            want = np.argsort(-row, kind="stable")
            for n in range(1, size + 1):
                assert top_word_ids(row, n) == want[:n].tolist(), (row.tolist(), n)
