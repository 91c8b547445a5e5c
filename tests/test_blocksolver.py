"""Block fixed-point solver tests, anchored on independent oracles."""

import copy
import hashlib
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from structham import blocksolver
from structham.baselines import integrate_sv
from structham.blocksolver import (
    BlockState,
    DivergenceError,
    NonConvergenceError,
    SolverConfig,
    integrate,
    init_block,
    pe_update,
    se_update,
    solve_block,
)
from structham.numerics import DDOUBLE, NATIVE, DoubleDouble, max_abs
from structham.problems import (
    PROBLEM_NAMES,
    HamiltonianProblem,
    build_problem,
    lrl_scalar,
    make_kepler,
    make_mass_spring,
    make_pendulum,
    make_two_spring,
    project_lrl,
)
from structham.secoeff import ConfigurationError, Formulation, coeff_table

from oracles import (
    coefficient_blocks,
    dense_block_oracle,
    reference_newton_matrix,
    reference_predictor,
    reference_se,
    reference_solve_block,
)


def _block(problem, table):
    """A workspace for ``table``, which must be the problem's own, anchored at
    the problem's initial state, as integrate anchors its first block."""
    state = BlockState(problem, table.R, table.formulation, table.dt)
    assert state.table is table
    state.start(problem.x0, problem.p0)
    return state


class TestInitBlock:
    def test_mass_spring_hand_values(self):
        prob = make_mass_spring()
        state = _block(prob, coeff_table(1, "zd", 0.1))
        init_block(state)
        assert state.Z[0, 0][0, 0] == pytest.approx(1.0)
        assert state.Z[1, 0][0, 0] == pytest.approx(-0.1)
        Dx, Dp = state.DS[:, 0, 1:]
        assert Dx[0][0, 0] == pytest.approx(-0.1)
        assert Dp[0][0, 0] == pytest.approx(-1.0)

    def test_equilibrium_constant_block(self):
        prob = make_pendulum(x0=0.0, p0=0.0)
        state = _block(prob, coeff_table(3, "zds", 0.2))
        init_block(state)
        assert np.max(np.abs(state.Z[0])) == 0.0
        assert np.max(np.abs(state.Z[1])) == 0.0

    def test_kepler_second_order_predictor(self):
        prob = make_kepler()
        state = _block(prob, coeff_table(1, "zds", 0.01))
        init_block(state)
        assert state.Z[0, 0][0, 0] == pytest.approx(0.4 - 3.125e-4, abs=1e-15)
        assert state.Z[0, 0][1, 0] == pytest.approx(0.02, abs=1e-15)


class TestBlockStateTable:
    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    @pytest.mark.parametrize("R,form", [(1, "zd"), (3, "zds")])
    def test_table_at_the_problem_precision(self, R, form, prec):
        # a state makes its own table, so of its problem's precision, and
        # its twin's is the float64 one
        prob = make_mass_spring(precision=prec)
        state = BlockState(prob, R, form, 0.1)
        assert state.table is coeff_table(R, form, 0.1, prec)
        if prec is NATIVE:
            assert state.twin is None
        else:
            assert state.twin.problem is prob.native and state.twin.table is coeff_table(R, form, 0.1, NATIVE)
        with pytest.raises(TypeError):
            BlockState(prob, coeff_table(R, form, 0.1, prec))


class TestExtrapolatedPredictor:
    """Blocks after the first start from the Hermite polynomial through the
    previous node and the anchor; Taylor steps remain for the rest."""

    @pytest.mark.parametrize("name,form,R,T,prec,digest", [
        ("kepler", "zds", 2, 0.02, NATIVE, "5757dc9bc60019be"),
        ("pendulum", "zd", 3, 0.3, NATIVE, "e4eee78fdd7add14"),
        ("three_body_eight", "zds", 4, 1 / 12, NATIVE, "677dac95d4d4c74e"),
        ("mass_spring", "zds", 2, 1 / 12, DDOUBLE, "457e35b33e16f854"),
    ])
    def test_first_block_words_unchanged(self, name, form, R, T, prec, digest):
        # one block, no previous node: the Taylor start, word for word as
        # before the extrapolated predictor existed
        assert _trajectory_hash(integrate(build_problem(name, prec), form, R, R, T)) == digest

    @pytest.mark.parametrize("form,R,digest", [("zds", 2, "bd78c0d2c54ca1d5"), ("zd", 3, "9a292feff4942365")])
    def test_projected_run_words_unchanged(self, form, R, digest):
        # a projected node is off the previous block's polynomial, so every
        # block of a projected run starts from Taylor steps; at dt = 0.1 the
        # sweeps contract slowly and the blocks hold a Newton matrix
        prob = make_kepler()
        R0 = lrl_scalar(prob.x0[:, 0], prob.p0[:, 0])
        traj = integrate(prob, form, R, 300, 30.0, project=lambda X, P: project_lrl(X, P, R0))
        assert _trajectory_hash(traj) == digest

    @pytest.mark.parametrize("R", [1, 3])
    def test_history_is_the_previous_node(self, monkeypatch, R):
        # each block's (extrapolate, prev, W) as init_block finds them
        anchors, init = [], blocksolver.init_block

        def recorded(state, *args):
            anchors.append((state.extrapolate, state.prev.copy(), state.W.copy()))
            return init(state, *args)

        monkeypatch.setattr(blocksolver, "init_block", recorded)
        prob = make_pendulum()
        traj = integrate(prob, "zds", R, 4 * R, 0.4 * R)
        assert anchors[0][0] is False
        for b, (extrapolate, prev, W) in enumerate(anchors[1:], 1):
            # one node of history, stacked like the anchor: t_n - dt
            assert extrapolate and prev.shape == W.shape
            n = b * R - 1
            assert _words([prev[0, 0], prev[1, 0]]) == _words([traj.xs[n], traj.ps[n]])
            if R == 1:
                assert _words([prev]) == _words([anchors[b - 1][2]])

    def test_one_batched_pe_call(self):
        prob = make_kepler()
        calls, derivatives = [], prob.derivatives

        def counted(X, P, levels):
            calls.append(X.shape)
            return derivatives(X, P, levels)

        table = coeff_table(4, "zds", 0.01)
        state = _block(prob, table)
        prob.derivatives = counted
        solve_block(state, SolverConfig())
        state.hand_on(state)
        calls.clear()
        init_block(state)
        assert calls == [(4, 2, 1)]  # all R nodes at once
        H = np.concatenate([state.prev, state.W], axis=1)
        Z = np.add.accumulate(table.E[:, :, None, None] * H[:, None], axis=2)[:, :, -1]
        assert _words([state.Z]) == _words([Z])

    def test_non_finite_extrapolation_falls_back_to_taylor(self):
        prob = make_pendulum()
        table = coeff_table(2, "zds", 0.1)
        state, plain = _block(prob, table), _block(prob, table)
        state.prev[...], state.extrapolate = math.inf, True
        with np.errstate(invalid="ignore"):
            init_block(state)
        init_block(plain)
        assert _words([state.Y]) == _words([plain.Y])

    def test_sweeps_per_block(self):
        # with a Taylor start every block: 11.0 and 36.625
        solar = integrate(build_problem("outer_solar"), "zds", 2, 480, 25000.0)
        spring = integrate(build_problem("mass_spring"), "zds", 12, 96, 1.0)
        assert solar.total_sweeps / solar.n_blocks <= 8.5
        assert spring.total_sweeps / spring.n_blocks < 36.625


class TestHandOver:
    """Runs whose blocks hand over in place: a short last block with its own
    workspace, multi-block ddouble runs with the float64 twin, and projected
    runs, pinned word for word."""

    @pytest.mark.parametrize("name,prec,R,N,T,digest", [
        ("pendulum", NATIVE, 3, 31, 31 / 3, "6404993cc75d94d8"),
        ("mass_spring", DDOUBLE, 2, 25, 25 / 24, "295c5f027cc6f92b"),
        # its float64 phase drops M in 3 of its 6 blocks
        ("em_scb", DDOUBLE, 2, 12, 0.006, "ee70bc7ce76013ac"),
    ], ids=["pendulum-short-last", "mass_spring-ddouble-short-last", "em_scb-ddouble"])
    def test_words_unchanged(self, name, prec, R, N, T, digest):
        assert _trajectory_hash(integrate(build_problem(name, prec), "zds", R, N, T)) == digest

    @pytest.mark.parametrize("R,digest", [(2, "bea5682568abdfde"), (3, "f437a5b3e59679cc")])
    def test_projected_run_with_a_short_last_block(self, R, digest):
        prob = make_kepler()
        R0 = lrl_scalar(prob.x0[:, 0], prob.p0[:, 0])
        traj = integrate(prob, "zds", R, 301, 30.0, project=lambda X, P: project_lrl(X, P, R0))
        assert _trajectory_hash(traj) == digest


class TestSeUpdate:
    def test_zero_state_linearity(self):
        prob = make_mass_spring(x0=0.0, p0=0.0)
        state = _block(prob, coeff_table(2, "zds", 0.5))
        init_block(state)
        Zx, Zp = se_update(state)
        assert np.max(np.abs(Zx)) == 0.0
        assert np.max(np.abs(Zp)) == 0.0

    def test_quadratic_reproduction_zds_r1(self):
        # x(t) = t^2 with anchor (Z, D, S) = (0, 0, 2) and candidate node
        # values D1 = 2, S1 = 2 must return Z1 = 1 at dt = 1
        W = np.zeros((2, 3, 1, 1))
        W[0, 2] = 2.0  # x's S
        state = BlockState(make_mass_spring(), 1, "zds", 1.0)
        state.Z[...] = 0.0
        state.DS[:, :, 1:] = 0.0
        state.DS[0, :, 1:] = 2.0  # x's D1 and S1
        state.W[...] = W
        state.load_anchor()
        Zx, _ = se_update(state)
        assert Zx[0][0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_cubic_reproduction_zd_r2(self):
        # x(t) = t^3 sampled with D = 3 t^2: predicted (Z1, Z2) = (1, 8)
        W = np.zeros((2, 2, 1, 1))
        state = BlockState(make_mass_spring(), 2, "zd", 1.0)
        state.Z[...] = 0.0
        state.DS[:, :, 1:] = 0.0
        state.DS[0, 0, 1:, 0, 0] = 3.0, 12.0
        state.W[...] = W
        state.load_anchor()
        Zx, _ = se_update(state)
        assert Zx[0][0, 0] == pytest.approx(1.0, abs=1e-12)
        assert Zx[1][0, 0] == pytest.approx(8.0, abs=1e-12)


class TestStackedSeUpdate:
    @staticmethod
    def _random_block(rng, table, shape=(2, 3)):
        # a workspace for (2, 3) node values: three_body_eight's
        precision = table.precision

        def draw(*lead):
            return precision.asarray(rng.uniform(-1.0, 1.0, lead + shape))

        L = table.formulation.levels
        state = BlockState(build_problem("three_body_eight", precision), table.R, table.formulation, table.dt)
        state.W[...] = draw(2, L)
        state.Z[...] = draw(2, table.R)
        for s in range(1, L):
            state.DS[:, s - 1, 1:] = draw(2, table.R)
        return state

    @pytest.mark.parametrize(
        "precision,tol", [(NATIVE, 1e-14), (DDOUBLE, 1e-28)], ids=["double", "ddouble"]
    )
    @pytest.mark.parametrize("form", ["zd", "zds"])
    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_matches_term_by_term(self, R, form, precision, tol):
        table = coeff_table(R, form, 0.3, precision)
        t = coefficient_blocks(table)
        second = t.B_s is not None
        rng = np.random.default_rng(10 * R + second)
        state = self._random_block(rng, table)
        state.load_anchor()
        Zx, Zp = se_update(state)
        for c, new in enumerate((Zx, Zp)):
            z0, d0, D = state.W[c, 0], state.W[c, 1], state.DS[c, 0, 1:]
            for r in range(R):
                ref = t.b_z[r] * z0 + t.b_d[r] * d0
                for j in range(R):
                    ref = ref + t.B_d[r, j] * D[j]
                if second:
                    s0, S = state.W[c, 2], state.DS[c, 1, 1:]
                    ref = ref + t.b_s[r] * s0
                    for j in range(R):
                        ref = ref + t.B_s[r, j] * S[j]
                assert max_abs(new[r] + ref) <= tol

    @pytest.mark.parametrize("precision", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    @pytest.mark.parametrize("form", ["zd", "zds"])
    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_matrix_holds_table_fields(self, R, form, precision):
        # one column per stacked row Z_0 | D_0..D_R | (S_0..S_R); the cached
        # table every solver shares is read-only
        table = coeff_table(R, form, 0.3, precision)
        L = table.formulation.levels
        C = table.C
        assert C.shape == (R, L + (L - 1) * R) and C.dtype == precision.dtype
        assert not C.flags.writeable and not table.E.flags.writeable


class TestFlatProducts:
    """The SE and predictor products over flat (I, K), word for word against
    the (2, R, columns, I, K) broadcasts they replace, and the fixed views
    every sweep reads and writes."""

    @staticmethod
    def _state(precision, form, R, shape, seed):
        # a workspace of random words (ddouble ones with a full low word)
        # whose physical equations return their inputs: D = (P, X)
        problem = SimpleNamespace(x0=precision.asarray(np.zeros(shape)), native=None, name="echo",
                                  precision=precision, derivatives=lambda X, P, levels: ((P, X),) * levels)
        state = BlockState(problem, R, form, 0.3)
        rng = np.random.default_rng(seed)
        state.Y[...] = precision.asarray(rng.uniform(-1.0, 1.0, state.Y.shape)) / 3
        state.H[...] = precision.asarray(rng.uniform(-1.0, 1.0, state.H.shape)) / 7
        return state

    CASES = pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 6)], ids=str)
    PRECISIONS = pytest.mark.parametrize("precision", [NATIVE, DDOUBLE], ids=["double", "ddouble"])

    @CASES
    @PRECISIONS
    @pytest.mark.parametrize("form", ["zd", "zds"])
    @pytest.mark.parametrize("R", [1, 2, 5, 12])
    def test_se_update_matches_the_broadcast(self, R, form, precision, shape):
        state = self._state(precision, form, R, shape, seed=R)
        want = _words([reference_se(state)])
        got = se_update(state)
        assert got.shape == state.Z.shape and _words([got]) == want

    @CASES
    @PRECISIONS
    @pytest.mark.parametrize("form", ["zd", "zds"])
    @pytest.mark.parametrize("R", [1, 2, 5, 12])
    def test_predictor_matches_the_broadcast(self, R, form, precision, shape):
        state = self._state(precision, form, R, shape, seed=100 + R)
        state.extrapolate = True
        want = _words([reference_predictor(state)])
        blocksolver._predict(state)
        assert _words([state.Z]) == want
        # the PE refreshed every node from that Z: D = (P, X)
        assert _words([state.DS[:, 0, 1:]]) == _words([state.Z[::-1]])

    @CASES
    @PRECISIONS
    @pytest.mark.parametrize("form", ["zd", "zds"])
    @pytest.mark.parametrize("R", [1, 2, 5, 12])
    def test_fixed_views_alias_the_workspace(self, R, form, precision, shape):
        # a reshape that silently copied would feed the sweeps stale words
        state = self._state(precision, form, R, shape, seed=0)
        _, rows, _, sums, result = state.se_ops
        _, H, _, p_sums, p_result = state.predictor_ops
        views = {"se rows": (rows, state.Y), "se result": (result, sums),
                 "predictor rows": (H, state.H), "predictor result": (p_result, p_sums)}
        for name, home in [("nodes", state.Z), ("anchor_nodes", state.W), ("anchor", state.W),
                           ("anchor_rows", state.Y), ("history", state.H), ("tail", state.Y),
                           ("node_out", state.DS), ("anchor_out", state.W)]:
            for i, view in enumerate(getattr(state, name)):
                pairs = enumerate(view) if name.endswith("_out") else [("", view)]  # per level, x and p
                views.update({f"{name}[{i}]{c}": (v, home) for c, v in pairs})
        assert [name for name, (view, home) in views.items() if not np.shares_memory(view, home)] == []
        assert result.shape == p_result.shape == state.Z.shape

    @PRECISIONS
    @pytest.mark.parametrize("R", [1, 2, 5])
    def test_views_see_the_rows_they_name(self, R, precision):
        state = self._state(precision, "zds", R, (2, 3), seed=1)
        before = state.Y[:, 0] if R == 1 else state.Z[:, R - 2]  # the anchor rows at R = 1
        expected = {
            "nodes": (state.Z[0], state.Z[1]),
            "node_out": [state.DS[c, s, 1:] for s in range(2) for c in range(2)],
            "anchor_nodes": (state.W[0, :1], state.W[1, :1]),
            "anchor_out": [state.W[c, s + 1, None] for s in range(2) for c in range(2)],
            "anchor_rows": (state.Y[:, 0], state.DS[:, :, 0]),
            "history": (np.stack([state.prev[:, 0], state.W[:, 0]], axis=1),
                        np.stack([state.prev[:, 1:], state.W[:, 1:]], axis=1)),
            "tail": (np.stack([before, state.Z[:, R - 1]], axis=1),
                     np.stack([state.DS[:, :, R - 1], state.DS[:, :, R]], axis=1)),
        }
        for name, arrays in expected.items():
            views = getattr(state, name)
            if name.endswith("_out"):
                views = [v for pair in views for v in pair]
            assert [v.shape for v in views] == [a.shape for a in arrays], name
            assert _words(views) == _words(arrays), name


def _pe(prob, Zx, Zp):
    """D and S from ``pe_update`` at the node blocks (Zx, Zp), read from its ``out``."""
    out = np.empty((2, 2) + Zx.shape, dtype=Zx.dtype)
    assert pe_update(prob, Zx, Zp, tuple(zip(*out))) is None
    (Dx, Sx), (Dp, Sp) = out
    return Dx, Dp, Sx, Sp


class TestPeUpdate:
    def test_mass_spring_node_values(self):
        prob = make_mass_spring()
        Zx = np.array([[[1.0]]])
        Zp = np.array([[[0.0]]])
        Dx, Dp, Sx, Sp = _pe(prob, Zx, Zp)
        assert Dx[0][0, 0] == 0.0 and Dp[0][0, 0] == -1.0
        assert Sx[0][0, 0] == -1.0 and Sp[0][0, 0] == 0.0

    def test_free_particle(self):
        def ham(X, P):
            return 0.5 * (P * P).sum()

        prob = HamiltonianProblem(
            name="free",
            x0=np.array([[0.0]]), p0=np.array([[1.0]]),
            hamiltonian=ham,
            first_rhs=lambda X, P: (P.copy(), np.zeros_like(X)),
            second_rhs=lambda X, P, DX, DP: (DP.copy(), np.zeros_like(X)),
        )
        Dx, Dp, Sx, Sp = _pe(prob, np.array([[[3.0]]]), np.array([[[2.0]]]))
        assert Dx[0][0, 0] == 2.0 and Dp[0][0, 0] == 0.0
        assert Sx[0][0, 0] == 0.0 and Sp[0][0, 0] == 0.0

    def test_pendulum_node_values(self):
        prob = make_pendulum()
        Zx = np.array([[[math.pi / 4]]])
        Zp = np.array([[[0.0]]])
        Dx, Dp, Sx, Sp = _pe(prob, Zx, Zp)
        assert Dx[0][0, 0] == 0.0
        assert Dp[0][0, 0] == pytest.approx(-math.sqrt(2) / 2)
        assert Sx[0][0, 0] == pytest.approx(-math.sqrt(2) / 2)
        assert Sp[0][0, 0] == 0.0

    def test_one_call_per_level_for_all_nodes(self):
        prob = make_two_spring()
        seen = []
        first, second, derivatives = prob.first_rhs, prob.second_rhs, prob.derivatives
        prob.first_rhs = lambda X, P: seen.append(("first", X.shape)) or first(X, P)
        prob.second_rhs = lambda X, P, DX, DP: seen.append(("second", X.shape)) or second(X, P, DX, DP)
        prob.derivatives = lambda X, P, levels: seen.append(("both", levels)) or derivatives(X, P, levels)
        Z = np.stack([prob.x0 * (1 + r) for r in range(3)])
        Dx, Dp, Sx, Sp = _pe(prob, Z, -Z)
        assert seen == [("both", 2), ("first", (3, 1, 2)), ("second", (3, 1, 2))]
        for r in range(3):
            D = first(Z[r], -Z[r])
            assert np.array_equal(Dx[r], D[0]) and np.array_equal(Dp[r], D[1])
            S = second(Z[r], -Z[r], *D)
            assert np.array_equal(Sx[r], S[0]) and np.array_equal(Sp[r], S[1])

    @staticmethod
    def node_only(X, P, *_):
        # written for one (I, K) node: it would broadcast node 0's
        # derivatives over the whole block
        return np.array([[P[0, 0]]]), np.array([[0.0]])

    @pytest.mark.parametrize("level", ["first_rhs", "second_rhs"])
    def test_node_only_rhs_rejected(self, level):
        # the default derivatives is named, with the level its rhs gave
        prob = make_mass_spring()
        setattr(prob, level, self.node_only)
        Z = np.linspace(0.5, 1.5, 3).reshape(3, 1, 1)
        D_or_S = "D" if level == "first_rhs" else "S"
        message = rf"^mass_spring derivatives returned {D_or_S} shapes .* for node block \(3, 1, 1\): .* node by node"
        with pytest.raises(ConfigurationError, match=message):
            _pe(prob, Z, Z)

    @pytest.mark.parametrize("level", ["D", "S"])
    def test_node_only_fused_derivatives_rejected(self, level):
        # a problem's own derivatives is named too, with the level at fault
        prob = make_pendulum()
        derivatives = prob.derivatives

        def fused(X, P, levels):
            D, S = derivatives(X, P, 2)
            return (self.node_only(X, P), S) if level == "D" else (D, self.node_only(X, P))

        prob.derivatives = fused
        Z = np.linspace(0.5, 1.5, 3).reshape(3, 1, 1)
        message = rf"^pendulum derivatives returned {level} shapes .* for node block \(3, 1, 1\): .* node by node"
        with pytest.raises(ConfigurationError, match=message):
            _pe(prob, Z, Z)

    @pytest.mark.parametrize("level", ["D", "S"])
    @pytest.mark.parametrize("caller, nodes", [
        ("start", 1), ("taylor", 1), ("extrapolated", 3), ("sweep", 3), ("probes", 18),
    ])
    def test_node_only_refused_by_every_caller(self, caller, nodes, level):
        # every caller passes its own inputs and targets: the anchor's, a
        # Taylor node's, the block's and the 2 R I K probes' (pendulum, R = 3)
        prob = make_pendulum()
        derivatives = prob.derivatives

        def fused(X, P, levels):
            D, S = derivatives(X, P, 2)
            one = np.zeros((1, 1)), np.zeros((1, 1))  # as written for one (I, K) node
            return (one, S) if level == "D" else (D, one)

        state = BlockState(prob, 3, "zds", 0.1)
        if caller != "start":
            state.start(prob.x0, prob.p0)
            if caller != "taylor":
                init_block(state)
                if caller == "extrapolated":
                    state.hand_on(state)
        prob.derivatives = fused
        message = rf"^pendulum derivatives returned {level} shapes .* for node block \({nodes}, 1, 1\): .* node by node"
        with pytest.raises(ConfigurationError, match=message):
            if caller == "start":
                state.start(prob.x0, prob.p0)
            elif caller in ("taylor", "extrapolated"):
                init_block(state)
            elif caller == "sweep":
                blocksolver._sweep(state, 1e-14, 5)
            else:
                blocksolver._newton_matrix(state)


class TestSolveBlock:
    @pytest.mark.parametrize("form", ["zd", "zds"])
    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_oracle_equivalence_mass_spring(self, R, form):
        prob = make_mass_spring()
        tol = 1e-14
        table = coeff_table(R, form, 0.1)
        state = _block(prob, table)
        solve_block(state, SolverConfig(tol=tol))
        Zx_ref, Zp_ref = dense_block_oracle(prob, table, state.W)
        assert np.max(np.abs(state.Z[0, :, 0, 0] - Zx_ref[:, 0])) <= 10 * tol
        assert np.max(np.abs(state.Z[1, :, 0, 0] - Zp_ref[:, 0])) <= 10 * tol

    @pytest.mark.parametrize("form", ["zd", "zds"])
    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_oracle_equivalence_two_spring(self, R, form):
        prob = make_two_spring()
        tol = 1e-14
        table = coeff_table(R, form, 0.05)
        state = _block(prob, table)
        solve_block(state, SolverConfig(tol=tol))
        Zx_ref, Zp_ref = dense_block_oracle(prob, table, state.W)
        assert np.max(np.abs(state.Z[0].reshape(R, 2) - Zx_ref)) <= 10 * tol
        assert np.max(np.abs(state.Z[1].reshape(R, 2) - Zp_ref)) <= 10 * tol

    def test_equilibrium_one_iteration(self):
        prob = make_pendulum(x0=0.0, p0=0.0)
        state = _block(prob, coeff_table(2, "zds", 0.3))
        solve_block(state, SolverConfig())
        assert state.sweeps == 1
        assert np.max(np.abs(state.Z[0])) == 0.0

    @pytest.mark.parametrize("form,R", [("zd", 2), ("zds", 1), ("zds", 3)])
    def test_iteration_accounting(self, form, R):
        # a one-block run counts the block's sweeps, and R PE nodes for each
        # and for the predictor, plus the t=0 anchor's one
        prob, T = make_pendulum(), 0.1 * R
        state = _block(prob, coeff_table(R, form, T / R))
        solve_block(state, SolverConfig())
        traj = integrate(prob, form, R, R, T)
        assert traj.total_sweeps == state.sweeps and traj.pe1_calls == R * (state.sweeps + 1) + 1

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_zero_divisor_diverges_in_both_backends(self, prec):
        # dp/dt = 1 / (x - 2) from (x, p) = (1, 1); with dt = 1 the predictor
        # puts node 1 at x = 2 exactly, where the right-hand side divides by 0
        prob = HamiltonianProblem(
            name="pole",
            x0=prec.asarray([[1.0]]), p0=prec.asarray([[1.0]]),
            first_rhs=lambda X, P: (P.copy(), 1 / (X - 2)),
            second_rhs=lambda X, P, DX, DP: (DP.copy(), -(DX / ((X - 2) * (X - 2)))),
        )
        with pytest.raises(DivergenceError):
            integrate(prob, "zd", 1, 1, 1.0)

    def test_divergence_detected(self):
        prob = make_mass_spring()
        state = _block(prob, coeff_table(1, "zd", 1e8))
        with pytest.raises(DivergenceError), np.errstate(over="ignore", invalid="ignore"):
            solve_block(state, SolverConfig())

    def test_nonconvergence_message_states_residual(self):
        prob = make_pendulum()
        state = _block(prob, coeff_table(2, "zds", 0.1))
        tol = 1e-14
        with pytest.raises(NonConvergenceError) as info:
            solve_block(state, SolverConfig(tol=tol, max_iter=2))
        err = info.value
        assert err.residual > tol
        assert f"{err.residual:.3e} in positions and momenta" in str(err)
        assert f"tol {tol:.1e}" in str(err)
        with pytest.raises(NonConvergenceError) as info:
            integrate(prob, "zds", 2, 4, 0.4, SolverConfig(tol=tol, max_iter=2))
        assert info.value.residual == err.residual
        assert str(info.value).startswith("block starting at step 0: ")

    def test_newton_solves_a_block_the_fixed_point_cannot(self):
        # at dt = 4 each plain sweep doubles the change (|G'| = dt / 2); after
        # three such sweeps the block builds M, and this linear block is then
        # solved.  With no sweep left to use M, the cap is reached and named
        prob = make_mass_spring()
        table = coeff_table(1, "zd", 4.0)
        state = _block(prob, table)
        solve_block(state, SolverConfig(max_iter=50))
        Zx_ref, Zp_ref = dense_block_oracle(prob, table, state.W)
        assert max_abs(state.Z[0, :, 0, 0] - Zx_ref[:, 0]) <= 1e-13
        assert max_abs(state.Z[1, :, 0, 0] - Zp_ref[:, 0]) <= 1e-13
        assert state.newton is not None and state.sweeps == 4 + 2 + 2  # plain, probes, corrected
        with pytest.raises(NonConvergenceError, match=r"; last contraction 2, Newton matrix none\)$"):
            solve_block(_block(prob, table), SolverConfig(max_iter=4))


def _words(arrays):
    """Every entry as hex words, (hi, lo) for double-double; signed zeros kept."""
    return [
        (v.hi.hex(), v.lo.hex()) if isinstance(v, DoubleDouble) else float(v).hex()
        for A in arrays
        for v in np.asarray(A).ravel()
    ]


class TestLeanSweep:
    """The sweep loop against the loop as first written, and its stop tests."""

    @pytest.mark.parametrize(
        "name,R,N,T,prec",
        [
            ("pendulum", 1, 300, 100.0, NATIVE),
            ("pendulum", 3, 300, 100.0, NATIVE),
            ("kepler", 2, 480, 10.0, NATIVE),
            ("mass_spring", 2, 40, 4.0, DDOUBLE),
        ],
        ids=["pendulum-r1", "pendulum-r3", "kepler-r2", "mass_spring-r2-ddouble"],
    )
    def test_bit_identical_to_reference_loop(self, monkeypatch, name, R, N, T, prec):
        got = integrate(build_problem(name, prec), "zds", R, N, T)
        monkeypatch.setattr(blocksolver, "solve_block", reference_solve_block)
        ref = integrate(build_problem(name, prec), "zds", R, N, T)
        assert (got.total_sweeps, got.pe1_calls) == (ref.total_sweeps, ref.pe1_calls)
        assert _words(got.xs) == _words(ref.xs)
        assert _words(got.ps) == _words(ref.ps)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize(
        "prec,twin,k,verdict",
        [(NATIVE, False, 4, "n/a, Newton matrix none"), (NATIVE, False, 6, "0.08, Newton matrix none"),
         (DDOUBLE, True, 3, "n/a, Newton matrix held"), (DDOUBLE, False, 6, "0.08, Newton matrix none")],
        ids=["double-4", "double-6", "ddouble-3", "ddouble-no-twin-6"],
    )
    def test_non_finite_rhs_in_a_sweep(self, prec, twin, bad, k, verdict):
        # calls 1-3 are the anchor and the two predictor nodes, call k >= 4 is
        # sweep k - 3; with the float64 twin, call 2 is the lift's refresh and
        # call 3 the first of the block's two ddouble sweeps, a corrected one.
        # The next sweep's block then holds the bad value; the verdict names
        # the contraction of the sweeps before it
        prob = make_mass_spring(precision=prec)
        if not twin:
            prob.native = None
        first, calls = prob.first_rhs, []

        def first_rhs(X, P):
            calls.append(X.shape)
            Dx, Dp = first(X, P)
            return (Dx, np.full_like(Dp, prec.real(bad))) if len(calls) == k else (Dx, Dp)

        prob.first_rhs = first_rhs
        state = _block(prob, coeff_table(2, "zds", 0.1, prec))
        message = f"non-finite block value during fixed-point sweep (last contraction {verdict})"
        with pytest.raises(DivergenceError) as info, np.errstate(invalid="ignore"):
            solve_block(state, SolverConfig(precision=prec))
        assert str(info.value) == message
        assert len(calls) == k

    def test_overflowing_change_of_finite_block_is_growth(self, monkeypatch):
        # structural updates -1e5, -1e10, .., -1e300 (each within the growth
        # limit of 1e6), then the largest float: finite, but its change from
        # -1e300 overflows to inf
        values = iter([-(10.0 ** (5 * k)) for k in range(1, 61)] + [sys.float_info.max])
        monkeypatch.setattr(blocksolver, "se_update", lambda state: np.full_like(state.Z, next(values)))
        state = _block(make_mass_spring(), coeff_table(1, "zd", 0.1))
        with pytest.raises(DivergenceError, match=r"^block norm grew from 1\.000e\+300 to 1\.798e\+308"), \
                np.errstate(over="ignore"):
            solve_block(state, SolverConfig())

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_anchor_rows_unchanged_by_solve(self, prec):
        prob = make_pendulum(precision=prec)
        state = _block(prob, coeff_table(3, "zds", 0.1, prec))
        W = _words([state.W])
        solve_block(state, SolverConfig(precision=prec))
        assert state.sweeps > 1
        assert _words([state.Y[:, 0], state.DS[:, :, 0]]) == _words([state.W[:, 0], state.W[:, 1:]])
        assert _words([state.W]) == W

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_folded_negation_matches_written_out_formulas(self, prec):
        # the kernels multiply by a negated constant; -(c * f) has the same words
        vals = [0.0, -0.0, 0.5, -1.25, 3.0, -1e-300, 5e-324, 1e6]
        X = prec.asarray(np.reshape(vals, (-1, 1, 1)))
        D = prec.asarray(np.reshape(vals[::-1], (-1, 1, 1)))
        if prec is DDOUBLE:  # a zero hi word of either sign from arithmetic, too
            X[0, 0, 0], D[0, 0, 0] = -DoubleDouble(0.0), DoubleDouble(0.0) * -1.0
        pend = make_pendulum(m=1.3, g=9.81, length=0.7, precision=prec)
        mgl = pend.parameters["m"] * pend.parameters["g"] * pend.parameters["l"]
        spring = make_mass_spring(kappa=2.7, precision=prec)
        k = spring.parameters["kappa"]
        with np.errstate(over="ignore", invalid="ignore"):
            (pend_dx, pend_dp), (_, pend_sp) = pend.derivatives(X, D, 2)
            (spring_dx, spring_dp), (_, spring_sp) = spring.derivatives(X, D, 2)
            for got, want in (
                (pend_dp, -(mgl * np.sin(X))),
                (pend_sp, -(mgl * np.cos(X) * pend_dx)),
                (pend.force(X), -(mgl * np.sin(X))),
                (spring_dp, -(k * X)),
                (spring_sp, -(k * spring_dx)),
            ):
                assert _words([got]) == _words([want])


_REAL_SE = blocksolver.se_update


def _scripted_se(script, ddouble_only=False):
    """An se_update that follows ``script``, and the list of its calls.

    ``script(k)`` for the k-th call (0-based) gives None for the real SE
    output, ``("x", c)`` for that output times c, or a number to fill the
    block with.  With ``ddouble_only``, float64 calls (a float64 phase) get
    the real output and are not counted in k.
    """
    calls = []

    def se(state):
        real = _REAL_SE(state)
        if ddouble_only and state.Z.dtype != object:
            return real
        calls.append(state.Z.copy())
        step = script(len(calls) - 1)
        if step is None:
            return real
        if isinstance(step, tuple):
            return real * step[1]
        fill = np.full(state.Z.shape, step)
        return DDOUBLE.asarray(fill) if state.Z.dtype == object else fill

    return se, calls


def _outcome(solve, state, config):
    """What ``solve(state, config)`` ended with: its words and counts, or its refusal."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            solve(state, config)
    except DivergenceError as err:
        return "diverged", str(err)
    except NonConvergenceError as err:
        return "not converged", err.residual
    return "converged", _words([state.Y]), state.sweeps


class TestGrowthBound:
    """The growth test, which takes norms only on a step past the gate,
    refuses at the sweep, and with the words, of the loop that takes the
    norm every sweep."""

    @staticmethod
    def compare(monkeypatch, problem, form, R, dt, script, ddouble_only=False, max_iter=200):
        table = coeff_table(R, form, dt, problem.precision)
        config = SolverConfig(max_iter=max_iter)
        got_se, got_calls = _scripted_se(script, ddouble_only)
        monkeypatch.setattr(blocksolver, "se_update", got_se)
        got = _outcome(solve_block, _block(problem, table), config)
        ref_se, ref_calls = _scripted_se(script, ddouble_only)
        monkeypatch.setattr(blocksolver, "se_update", ref_se)  # a float64 phase's sweeps
        ref = _outcome(lambda state, config: reference_solve_block(state, config, se=ref_se),
                       _block(problem, table), config)
        assert got == ref
        assert len(got_calls) == len(ref_calls)
        return got, len(got_calls)

    @pytest.mark.parametrize("fills,sweep,message,prec,x0", [
        pytest.param(fills, sweep, message, prec, x0, id=name + suffix)
        for prec, suffix in ((NATIVE, ""), (DDOUBLE, "-ddouble"))
        for name, fills, sweep, message, x0 in [
            ("first-sweep", [2e7], 1, "from 1.000e+00 to 2.000e+07", 1.0),
            ("third-sweep", [None, None, 3e7], 3, "to 3.000e+07", 1.0),
            ("staircase", [-1e3, 1e6, -1e9, 1e12, -1e19], 5, "from 1.000e+12 to 1.000e+19", 1.0),
            ("past-the-anchor-scale", [1e5, 1e10, 1e15, 2e21], 4, "from 1.000e+15 to 2.000e+21", 1.0),
            ("just-under-the-limit", [0.5, 1e6 + 0.25], 2, "from 5.000e-01 to 1.000e+06", 1.0),
            ("under-a-large-anchor-scale", [1.0, 1e7, 1e17], 3, "from 1.000e+07 to 1.000e+17", 1e3),
        ]
    ])
    def test_growth_refused_at_the_same_sweep(self, monkeypatch, fills, sweep, message, prec, x0):
        # each rise but the last stays within the limit, although the block
        # may pass GROWTH_LIMIT times its anchor scale on the way; the last
        # change of just-under-the-limit, 999 999.75, is just under
        # GROWTH_LIMIT times the anchor scale, so a gate that high misses it.
        # Under-a-large-anchor-scale: the anchor's scale is 1e3, so the rise
        # from 1 to 1e7 passes the unit gate but stays within the limit,
        # 1e6 times the scale; a growth test that takes the scale as 1 refuses it
        prob = _without_twin(make_mass_spring(x0=x0, precision=prec))
        got, calls = self.compare(monkeypatch, prob, "zd", 1, 0.1, lambda k: fills[k])
        assert got[0] == "diverged" and message in got[1] and calls == sweep

    def test_overflowing_change_refused_like_the_reference(self, monkeypatch):
        fills = [-(10.0 ** (5 * k)) for k in range(1, 61)] + [sys.float_info.max]
        got, calls = self.compare(monkeypatch, make_mass_spring(), "zd", 1, 0.1, lambda k: fills[k])
        # M, built after the fourth sweep, corrects the fifth and is dropped at the sixth
        assert got == ("diverged", "block norm grew from 1.000e+300 to 1.798e+308 in one sweep "
                                   "(last contraction inf, Newton matrix dropped)")
        assert calls == 61

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_non_finite_sweep_refused_like_the_reference(self, monkeypatch, prec):
        prob = _without_twin(make_mass_spring(precision=prec))
        got, calls = self.compare(monkeypatch, prob, "zds", 2, 0.1, lambda k: [None, 2.0, math.nan][k])
        assert got == ("diverged", "non-finite block value during fixed-point sweep "
                                   "(last contraction 6.61e+03, Newton matrix none)") and calls == 3

    def test_loose_bound_over_a_small_block_refuses_nothing(self, monkeypatch):
        # the block swings between +-6e5: each change of 1.2e6 passes the
        # gate, so the norms are taken, while the norm stays 6e5
        got, calls = self.compare(monkeypatch, make_mass_spring(), "zd", 1, 0.1,
                                  lambda k: 6e5 * (-1) ** k, max_iter=30)
        assert got == ("not converged", 1.2e6) and calls == 30

    def test_block_far_past_the_anchor_scale_converges(self, monkeypatch):
        # the block's norm rises 1e5-fold per sweep to 1e15, 1e9 times the
        # anchor's, and stays near it; the fourth change falls 100-fold, so
        # no run of three slow sweeps builds a Newton matrix
        fills = [1e5, 1e10, 1e15, 1.01e15, 1.02e15, 1.02e15]
        got, calls = self.compare(monkeypatch, make_mass_spring(), "zd", 1, 0.1, lambda k: fills[k])
        assert got[0] == "converged" and got[2] == calls == 6
        # max-norms per sweep: the change; for a change past the gate also
        # the block's and the new block's ("n" a norm, "s" a sweep); the
        # anchor scale is read at the first change past the unit gate, the
        # second sweep's
        events = []
        se, _ = _scripted_se(lambda k: events.append("s") or fills[k])
        monkeypatch.setattr(blocksolver, "se_update", se)
        monkeypatch.setattr(blocksolver, "max_abs", lambda a: events.append("n") or max_abs(a))
        solve_block(_block(make_mass_spring(), coeff_table(1, "zd", 0.1)), SolverConfig())
        assert [len(norms) for norms in "".join(events).split("s")] == [0, 1, 4, 3, 3, 3, 1]

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_step_under_the_anchor_gate_takes_no_block_norm(self, monkeypatch, prec):
        # the anchor's scale is 1e3: the rise from 1 to 1e7 passes the unit
        # gate, so the scale is read, but not the gate, 5e8, so neither the
        # block's norm nor the new block's is; the rise to 1e17 takes both
        fills, events = [1.0, 1e7, 1e17], []
        se, _ = _scripted_se(lambda k: events.append("s") or fills[k])
        monkeypatch.setattr(blocksolver, "se_update", se)
        monkeypatch.setattr(blocksolver, "max_abs", lambda a: events.append("n") or max_abs(a))
        prob = _without_twin(make_mass_spring(x0=1e3, precision=prec))
        state = _block(prob, coeff_table(1, "zd", 0.1, prec))
        with pytest.raises(DivergenceError, match=r"^block norm grew from 1\.000e\+07 to 1\.000e\+17"):
            solve_block(state, SolverConfig())
        assert [len(norms) for norms in "".join(events).split("s")] == [0, 1, 2, 3]

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    @pytest.mark.parametrize("entry,fills", [(1.0, [1e8]), (math.nan, [1e8]), (1.0, [None, 1e8])],
                             ids=["past-the-limit", "nan-correction", "after-a-corrected-step"])
    def test_refused_corrected_sweep_leaves_the_block(self, monkeypatch, prec, entry, fills):
        # M^-1 = entry I.  The last sweep's SE output, 1e8, drops M: its
        # corrected block outgrows the limit, or its correction is NaN, or
        # (after a corrected step, taken in place) its change does not
        # halve.  The plain growth test then refuses the sweep, which must
        # leave the block word for word as the sweep found it
        prob = _without_twin(make_mass_spring(precision=prec))
        state = _block(prob, coeff_table(2, "zds", 0.1, prec))
        init_block(state)
        state.newton = entry * np.eye(state.Z.size)
        se, calls = _scripted_se(lambda k: fills[k])
        monkeypatch.setattr(blocksolver, "se_update", se)
        message = r"^block norm grew from .* to 1\.000e\+08 in one sweep \(last contraction .*, Newton matrix dropped\)$"
        with pytest.raises(DivergenceError, match=message), np.errstate(invalid="ignore"):
            blocksolver._sweep(state, prec.default_tol, 200)
        assert len(calls) == len(fills)
        assert _words([state.Z]) == _words([calls[-1]])

    @pytest.mark.parametrize("script,outcome,calls", [
        ({1: 1e8}, "diverged", 2),
        ({1: 1.5, 3: 1e8}, "diverged", 4),
        ({1: 1.5}, "converged", None),
        ({0: 1e8}, "diverged", 1),
    ], ids=["jump-while-corrected", "jump-after-the-drop", "drop-then-converge", "jump-at-the-lift"])
    def test_newton_corrected_ddouble_block(self, monkeypatch, script, outcome, calls):
        # the ddouble sweeps after the float64 phase; a scaled SE output
        # drops M (the change does not halve, or the corrected block
        # outgrows the limit), and the plain sweeps that follow test the
        # growth of a step past the gate
        prob = make_mass_spring(precision=DDOUBLE)
        got, n = self.compare(monkeypatch, prob, "zds", 2, 0.1,
                              lambda k: ("x", script[k]) if k in script else None, ddouble_only=True)
        assert got[0] == outcome and (calls is None or n == calls)
        if outcome == "diverged":
            assert got[1].startswith("block norm grew from ")

    def test_growth_after_a_corrected_step(self, monkeypatch):
        # a corrected step lifts the block from about 0.1 to 0.68..0.92, below
        # the anchor scale 1; the next sweep fills it with 1e6 + 0.25, past
        # the limit 1e6, and drops M.  Its change, about 1e6 - 0.9, passes
        # the gate, so the plain growth test reads the corrected norm
        prob = make_mass_spring(x0=0.1, precision=DDOUBLE)
        got, n = self.compare(monkeypatch, prob, "zds", 2, 0.1,
                              lambda k: {0: 0.8, 1: 1e6 + 0.25}.get(k), ddouble_only=True)
        assert got == ("diverged", "block norm grew from 9.152e-01 to 1.000e+06 in one sweep "
                                   "(last contraction 1.22e+06, Newton matrix dropped)") and n == 2

    @pytest.mark.parametrize("sweep", [0, 1])
    def test_float64_phase_drops_its_sweep(self, monkeypatch, sweep):
        # a float64 sweep whose corrected block outgrows the limit drops M
        # and ends the phase; the block lifted is the iterate it started from
        prob = make_mass_spring(precision=DDOUBLE)
        iterates = []

        def se(state):
            real = _REAL_SE(state)
            if state.Z.dtype == object:
                return real
            iterates.append(state.Z.copy())
            return real * 1e8 if len(iterates) == sweep + 1 else real

        monkeypatch.setattr(blocksolver, "se_update", se)
        state = _block(prob, coeff_table(2, "zds", 0.1, DDOUBLE))
        init_block(state)
        probes = state.Z.size
        assert len(iterates) == sweep + 1 and state.sweeps == probes + sweep + 1
        assert _words([state.Z]) == _words([DDOUBLE.asarray(iterates[sweep])])
        self.compare(monkeypatch, prob, "zds", 2, 0.1,
                     lambda k: ("x", 1e8) if k == sweep else None)

    def test_growth_after_a_mid_block_build(self, monkeypatch):
        # three slow plain sweeps of a small float64 block (no norm of the
        # block taken: each change is below the gate) build M; the next SE
        # output jumps to 1e7, so the corrected block outgrows the limit and
        # M is dropped, and the plain growth test refuses the jump from the
        # block's norm
        fills = [0.5, 0.9, 0.6, 0.85, 1e7]
        got, calls = self.compare(monkeypatch, make_mass_spring(), "zd", 1, 0.1, lambda k: fills[k])
        assert got == ("diverged", "block norm grew from 8.500e-01 to 1.000e+07 in one sweep "
                                   "(last contraction n/a, Newton matrix dropped)") and calls == 5


    def test_mid_block_build_takes_the_exact_norm(self, monkeypatch):
        # the block swings between +-0.5; M built after the swings must limit
        # the corrected step by the block's norm, to 1e6, so the jump to 3e6
        # drops M and is refused
        fills = [0.5, -0.5, 0.5, -0.5, 3e6]
        got, calls = self.compare(monkeypatch, make_mass_spring(), "zd", 1, 0.1, lambda k: fills[k])
        assert got == ("diverged", "block norm grew from 5.000e-01 to 3.000e+06 in one sweep "
                                   "(last contraction n/a, Newton matrix dropped)") and calls == 5


class TestFloat64Newton:
    """A float64 block builds M = I - G' where its plain sweeps keep
    contracting slowly, and the next blocks of the same table hold it."""

    @staticmethod
    def builds(monkeypatch):
        count, build = [0], blocksolver._newton_matrix

        def counted(*args):
            count[0] += 1
            return build(*args)

        monkeypatch.setattr(blocksolver, "_newton_matrix", counted)
        return count

    def test_pendulum_long_builds_one_matrix(self, monkeypatch):
        # about 0.16 per plain sweep at dt = 1/3: 14.9 sweeps per block
        # without M, 5.97 with the one M held from the first block on
        builds = self.builds(monkeypatch)
        traj = integrate(build_problem("pendulum"), "zds", 1, 300, 100.0)
        assert builds[0] == 1 and traj.total_iter == 1792
        assert _trajectory_hash(traj) == "10acac64a649afb5"

    @pytest.mark.parametrize("name,R,N,T,project,digest", [
        ("outer_solar", 2, 480, 25000.0, False, "c074e6be892c3224"),
        ("kepler", 1, 9600, 100.0, True, "f2da268a81975958"),
        ("kepler", 2, 9600, 100.0, True, "20e3c144645c90ca"),
    ], ids=["outer_solar", "kepler-projected-r1", "kepler-projected-r2"])
    def test_fast_contraction_builds_none(self, monkeypatch, name, R, N, T, project, digest):
        # single sweeps reach 0.24 on these runs, never three in a row: the
        # words and counts of the plain loop (criterion 06 reads the
        # projected Kepler drift at the noise floor)
        builds = self.builds(monkeypatch)
        prob = build_problem(name)
        R0 = lrl_scalar(prob.x0[:, 0], prob.p0[:, 0]) if project else None
        traj = integrate(prob, "zds", R, N, T, project=(lambda X, P: project_lrl(X, P, R0)) if project else None)
        assert builds[0] == 0 and _trajectory_hash(traj) == digest

    def test_em_challenging_r3_reaches_the_end(self, monkeypatch):
        # criterion 10's step: the plain fixed point stalls at step 207 with
        # a change of 1.1e-14 against tol 1e-14
        builds = self.builds(monkeypatch)
        traj = integrate(build_problem("em_challenging"), "zds", 3, 240, 20.0, store_every=240)
        assert traj.times[-1] == 20.0 and traj.n_blocks == 80 and builds[0] > 0

    def test_deep_copied_problem_keeps_the_float64_path(self, monkeypatch):
        # a copy that lost NATIVE's identity built no M and stalled at step 207
        builds = self.builds(monkeypatch)
        original = build_problem("em_challenging")
        copied = copy.deepcopy(original)
        assert copied.precision is NATIVE
        want = integrate(original, "zds", 3, 240, 20.0)
        count = builds[0]
        got = integrate(copied, "zds", 3, 240, 20.0)
        assert got.total_iter == want.total_iter == 1567 and builds[0] == 2 * count > 0
        assert _words(got.xs + got.ps) == _words(want.xs + want.ps)

    def test_matrix_held_only_for_the_same_table(self, monkeypatch):
        # N = 3 R + 1: the short last block has its own table and starts
        # without the M the full blocks hand on
        held, solve = [], blocksolver.solve_block

        def recorded(state, config):
            held.append((state.table.R, state.newton is not None))
            return solve(state, config)

        monkeypatch.setattr(blocksolver, "solve_block", recorded)
        integrate(build_problem("pendulum"), "zds", 2, 7, 7 / 3)
        assert held == [(2, False), (2, True), (2, True), (1, False)]


def _same_inverse(got, want):
    """Both None, or float64 arrays of the same shape and words."""
    if got is None or want is None:
        return got is want
    return got.dtype == want.dtype == np.float64 and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestNewtonWorkspace:
    """M^-1 built in the state's workspace, word for word against the build
    that allocated every operand per call, and the workspace made once."""

    @staticmethod
    def _float64_state(name, form, R, twin):
        # a float64 state at its predictor: the problem's own, or the twin of
        # the ddouble problem's state
        precision = DDOUBLE if twin else NATIVE
        state = BlockState(build_problem(name, precision), R, form, _CATALOG_STEP[name])
        state = state.twin if twin else state
        state.start(state.problem.x0, state.problem.p0)
        init_block(state)
        return state

    @staticmethod
    def _move(state, k):
        # another Z, its node derivatives refreshed as a sweep refreshes them
        state.Z[...] = state.Z * (1.0 + 1e-3 * (k + 1)) + 1e-4 * k
        pe_update(state.problem, *state.nodes, state.node_out)

    # every problem, formulation, R and kind, but one 432-unknown outer_solar
    # case at R = 12: each of its builds eliminates a 432 x 864 array
    CASES = [(name, R, form, twin)
             for name in ["mass_spring", "pendulum", "outer_solar", "kepler", "em_challenging"]
             for R in [1, 2, 5, 12] for form in ["zd", "zds"] for twin in [False, True]
             if not (name == "outer_solar" and R == 12 and (twin or form == "zd"))]

    @pytest.mark.parametrize("name,R,form,twin", CASES,
                             ids=[f"{n}-{R}-{f}-{'twin' if t else 'float64'}" for n, R, f, t in CASES])
    def test_builds_match_the_reference(self, name, R, form, twin):
        state = self._float64_state(name, form, R, twin)
        assert state.newton_ops is None and state.problem.precision is NATIVE
        inverses = []
        for k in range(3):  # the same workspace at three Z
            want = reference_newton_matrix(state)
            got = blocksolver._newton_matrix(state)
            assert _same_inverse(got, want), k
            inverses.append((got, None if got is None else got.copy()))
            ops = ops if k else state.newton_ops
            assert state.newton_ops is ops
            self._move(state, k)
        assert all(_same_inverse(got, kept) for got, kept in inverses)
        assert any(got is not None for got, _ in inverses)

    @pytest.mark.parametrize("twin", [False, True], ids=["float64", "twin"])
    def test_build_counts_its_probes(self, twin):
        # one sweep of R node evaluations per probe, added by the build itself
        state = self._float64_state("pendulum", "zds", 2, twin)
        before = state.sweeps
        blocksolver._newton_matrix(state)
        assert state.sweeps == before + state.Z.size == before + 4  # 2 R I K probes

    def test_second_build_leaves_the_first_inverse(self):
        state = self._float64_state("em_challenging", "zds", 2, twin=False)
        first = blocksolver._newton_matrix(state)
        kept = first.copy()
        self._move(state, 0)
        second = blocksolver._newton_matrix(state)
        assert not np.shares_memory(first, state.newton_ops.A) and not np.shares_memory(first, second)
        assert _same_inverse(first, kept) and not _same_inverse(second, kept)

    @pytest.mark.parametrize("form", ["zd", "zds"])
    @pytest.mark.parametrize("R", [1, 3])
    def test_operands_alias_their_arrays(self, R, form):
        # a reshape that silently copied would probe stale words
        state = self._float64_state("kepler", form, R, twin=False)
        blocksolver._newton_matrix(state)
        w = state.newton_ops
        n = state.Z.size
        views = {"h": (w.h, w.offsets), "h_row": (w.h_row, w.offsets), "z": (w.z, state.Y),
                 "base": (w.base, state.DS), "G_prime": (w.G_prime, w.G), "M": (w.M, w.A), "I": (w.I, w.A)}
        views.update({f"nodes[{c}]": (v, w.probes) for c, v in enumerate(w.nodes)})
        views.update({f"targets[{s}][{c}]": (v, w.derivs) for s, pair in enumerate(w.targets)
                      for c, v in enumerate(pair)})
        assert [key for key, (view, home) in views.items() if not np.shares_memory(view, home)] == []
        assert w.offsets.shape == w.probes.shape == (2, n, n // 2) and w.change.shape[2] == n
        assert _words([w.h]) == _words([np.diag(w.offsets.swapaxes(0, 1).reshape(n, n)).reshape(state.Z.shape)])

    def test_outer_solar_float64_run_makes_no_workspace(self, monkeypatch):
        # its sweeps contract fast: no block builds M, and none pays for its operands
        made, make = [], blocksolver._NewtonOperands
        monkeypatch.setattr(blocksolver, "_NewtonOperands", lambda state: made.append(state) or make(state))
        traj = integrate(build_problem("outer_solar"), "zds", 2, 48, 2500.0)
        assert traj.n_blocks == 24 and made == []

    def test_short_last_block_builds_in_its_own_workspace(self, monkeypatch):
        # N = 2 R + 1 in ddouble: every block builds M on its twin, the last
        # one on the twin of its own R = 1 state
        built, build = [], blocksolver._newton_matrix

        def checked(state):
            want = reference_newton_matrix(state)
            got = build(state)
            built.append((state.table.R, state.newton_ops, _same_inverse(got, want), got is not None))
            return got

        monkeypatch.setattr(blocksolver, "_newton_matrix", checked)
        integrate(build_problem("pendulum", DDOUBLE), "zds", 2, 5, 5 / 3)
        assert [(R, same, ok) for R, _, same, ok in built] == [(2, True, True)] * 2 + [(1, True, True)]
        (_, full, *_), _, (_, short, *_) = built
        assert built[1][1] is full and short is not full
        assert short.A.shape == (2, 4) and full.A.shape == (4, 8)


def _trajectory_hash(traj):
    """sha256 prefix over every stored node's words, then the sweep and call counts."""
    h = hashlib.sha256()
    for A in traj.xs + traj.ps:
        for v in np.asarray(A).ravel():
            h.update(np.array([v.hi, v.lo] if isinstance(v, DoubleDouble) else [v], dtype=float).tobytes())
    h.update(repr((traj.total_sweeps, traj.pe1_calls)).encode())
    return h.hexdigest()[:16]


def _without_twin(problem):
    problem.native = None
    return problem


def _endpoint_gap(a, b):
    """Largest endpoint difference of two trajectories, and the bound 10 tol max(1, |Z|)."""
    gap = max(max_abs(a.xs[-1] - b.xs[-1]), max_abs(a.ps[-1] - b.ps[-1]))
    scale = max(1.0, max_abs(b.xs[-1]), max_abs(b.ps[-1]))
    return gap, 10 * DDOUBLE.default_tol * scale


# a step inside each problem's fixed-point convergence region
_CATALOG_STEP = {
    "mass_spring": 0.1, "two_spring": 0.05, "pendulum": 0.1, "kepler": 0.01,
    "three_body_eight": 1 / 48, "outer_solar": 52.0, "em_scb": 5e-4, "em_challenging": 0.02,
}


class TestMixedPrecision:
    """ddouble blocks solved with the native twin's float64 matrix M = I - G'."""

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_catalog_builders_fill_the_twin(self, name):
        prob = build_problem(name, DDOUBLE)
        twin = prob.native
        assert twin.precision is NATIVE and twin.native is None and twin.name == prob.name
        assert twin.x0.dtype == np.float64 and twin.x0.shape == prob.x0.shape
        assert max_abs(twin.x0 - prob.x0) <= 1e-15 * max(1.0, max_abs(prob.x0))
        assert build_problem(name).native is None
        assert "native" not in repr(prob)

    def test_twin_takes_the_builder_arguments(self):
        prob = make_mass_spring(2.0, "0.3", 0.5, -0.1, precision=DDOUBLE)  # the other arguments by position
        assert prob.native.parameters["kappa"] == 0.3 and prob.native.parameters["m"] == 2.0
        assert (prob.native.x0[0, 0], prob.native.p0[0, 0]) == (0.5, -0.1)
        with pytest.raises(TypeError):  # precision is keyword-only
            make_mass_spring(2.0, "0.3", 0.5, -0.1, DDOUBLE)

    @pytest.mark.parametrize("form,R", [("zds", 2), ("zd", 3)])
    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_catalog_endpoint_matches_plain_ddouble(self, name, form, R):
        N, dt = 6, _CATALOG_STEP[name]
        mixed = integrate(build_problem(name, DDOUBLE), form, R, N, N * dt)
        plain = integrate(_without_twin(build_problem(name, DDOUBLE)), form, R, N, N * dt)
        gap, bound = _endpoint_gap(mixed, plain)
        assert gap <= bound

    @pytest.mark.parametrize(
        "name,R,N,T,digest",
        [("mass_spring", 2, 240, 10.0, "170f3fb7de9834eb"), ("pendulum", 2, 40, 4.0, "511b23e3454d1c11")],
    )
    def test_without_twin_words_and_counts_unchanged(self, name, R, N, T, digest):
        # the ddouble solver on its own (no float64 twin), pinned word for word;
        # pendulum's words also follow the last bits of ddouble sin and cos
        traj = integrate(_without_twin(build_problem(name, DDOUBLE)), "zds", R, N, T)
        assert _trajectory_hash(traj) == digest

    @pytest.mark.parametrize("kappa", [1.5, 1e12], ids=["stiffer", "diverging"])
    def test_wrong_twin_converges_to_the_ddouble_fixed_point(self, kappa):
        # at kappa = 1e12 the float64 phase grows and hands over its last
        # finite iterate
        prob = make_mass_spring(x0=0.8, p0=0.3, precision=DDOUBLE)
        prob.native = make_mass_spring(kappa=kappa, x0=0.8, p0=0.3)
        got = integrate(prob, "zds", 2, 24, 1.0)
        ref = integrate(_without_twin(make_mass_spring(x0=0.8, p0=0.3, precision=DDOUBLE)), "zds", 2, 24, 1.0)
        gap, bound = _endpoint_gap(got, ref)
        assert gap <= bound

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 30])
    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_float64_phase_does_not_raise(self, bad, k):
        # twin calls 1-2 are the float64 predictor's two nodes (a bad value
        # there falls back to the ddouble predictor), call 3 on are sweeps
        prob = make_mass_spring(precision=DDOUBLE)
        twin_rhs, calls = prob.native.first_rhs, []

        def first_rhs(X, P):
            calls.append(X.shape)
            Dx, Dp = twin_rhs(X, P)
            return (Dx, np.full_like(Dp, bad)) if len(calls) == k else (Dx, Dp)

        prob.native.first_rhs = first_rhs
        got = integrate(prob, "zds", 2, 24, 1.0)
        assert len(calls) > k
        ref = integrate(_without_twin(make_mass_spring(precision=DDOUBLE)), "zds", 2, 24, 1.0)
        gap, bound = _endpoint_gap(got, ref)
        assert gap <= bound

    def test_ddouble_loop_gives_the_verdict(self):
        # the pole of test_zero_divisor_diverges_in_both_backends, with a twin:
        # the float64 phase goes non-finite without raising, and the ddouble
        # sweeps then raise the divergence
        def pole(prec):
            return HamiltonianProblem(
                name="pole",
                x0=prec.asarray([[1.0]]), p0=prec.asarray([[1.0]]),
                first_rhs=lambda X, P: (P.copy(), 1 / (X - 2)),
                second_rhs=lambda X, P, DX, DP: (DP.copy(), -(DX / ((X - 2) * (X - 2)))),
            )

        prob = pole(DDOUBLE)
        prob.native = pole(NATIVE)
        state = _block(prob, coeff_table(1, "zd", 1.0, DDOUBLE))
        init_block(state)
        assert state.sweeps == 1 and state.Z[0, 0, 0, 0] == 2
        with pytest.raises(DivergenceError, match="^block starting at step 0: non-finite block value"):
            integrate(prob, "zd", 1, 1, 1.0)

    @pytest.mark.parametrize("name,form,R,dt", [
        ("pendulum", "zds", 2, 0.1), ("pendulum", "zd", 3, 0.1), ("em_scb", "zds", 2, 5e-4),
    ], ids=["zds-2", "zd-3", "em_scb-zds-2"])
    def test_accounting_identity_counts_both_kinds_of_sweep(self, name, form, R, dt):
        # criterion 11's identity: R node evaluations per sweep, float64 ones
        # and the probes' batch (n R nodes for n probes) included, and one
        # initialization unit per block.  em_scb's float64 phase drops M in
        # half of its blocks and goes on with plain float64 sweeps
        prob = build_problem(name, DDOUBLE)
        nodes = {NATIVE: 0, DDOUBLE: 0}
        for p in (prob, prob.native):
            def counted(X, P, levels, derivatives=p.derivatives, prec=p.precision):
                nodes[prec] += math.prod(X.shape[:-2])
                return derivatives(X, P, levels)
            p.derivatives = counted
        traj = integrate(prob, form, R, 6 * R, 6 * R * dt)
        assert traj.pe1_calls == R * traj.total_iter + 1 == nodes[NATIVE] + nodes[DDOUBLE]
        assert nodes[NATIVE] > 0
        state = _block(prob, coeff_table(R, form, dt, DDOUBLE))
        init_block(state)
        presolved = state.sweeps
        solve_block(state, SolverConfig(precision=DDOUBLE))
        assert state.sweeps > presolved > 1

    def test_ddouble_sweeps_per_block(self, monkeypatch):
        # the ddouble-oscillator shape (criterion 12's step): after the lift,
        # at most 4 ddouble sweeps per block
        prob = make_mass_spring(precision=DDOUBLE)
        calls, rhs, init = [1], prob.first_rhs, blocksolver.init_block  # the first anchor's call

        def counted(X, P):
            calls[-1] += 1
            return rhs(X, P)

        def marked(*args):
            calls.append(0)
            return init(*args)

        prob.first_rhs = counted
        monkeypatch.setattr(blocksolver, "init_block", marked)
        integrate(prob, "zds", 2, 240, 10.0)
        sweeps = [n - 1 for n in calls[1:]]  # less the lift's refresh
        assert len(sweeps) == 120 and 1 <= min(sweeps) and max(sweeps) <= 4

    def test_non_finite_probes_drop_the_matrix(self):
        # a twin that is NaN only in the probes' batch (8 nodes: 4 probes of
        # R = 2) leaves no M; the block is solved by plain sweeps, first the
        # twin's (8 of them, to 1e-14) and, after the lift's refresh, its own
        prob = make_mass_spring(precision=DDOUBLE)
        twin_rhs, probes = prob.native.first_rhs, []

        def first_rhs(X, P):
            Dx, Dp = twin_rhs(X, P)
            if X.ndim == 3 and len(X) > 2:
                probes.append(len(X))
                Dp = np.full_like(Dp, math.nan)
            return Dx, Dp

        prob.native.first_rhs = first_rhs
        state = _block(prob, coeff_table(2, "zds", 1 / 24, DDOUBLE))
        init_block(state)
        assert state.newton is None and state.sweeps == 4 + 8 + 1 and probes == [8]
        got = integrate(prob, "zds", 2, 24, 1.0)
        ref = integrate(_without_twin(make_mass_spring(precision=DDOUBLE)), "zds", 2, 24, 1.0)
        gap, bound = _endpoint_gap(got, ref)
        assert gap <= bound and len(probes) == 1 + 12

    def test_block_accepted_by_a_plain_sweep(self, monkeypatch):
        # the returned Z is the last SE output, word for word, made from a
        # block it changed by at most tol; D and S are the PE at that Z
        outputs, se = [], blocksolver.se_update

        def recorded(state):
            outputs.append((se(state).copy(), state.Z.copy()))
            return outputs[-1][0]

        monkeypatch.setattr(blocksolver, "se_update", recorded)
        prob = make_pendulum(precision=DDOUBLE)
        state = _block(prob, coeff_table(2, "zds", 0.1, DDOUBLE))
        solve_block(state, SolverConfig(precision=DDOUBLE))
        new, old = outputs[-1]
        assert _words([state.Z]) == _words([new])
        assert max_abs(new - old) <= DDOUBLE.default_tol
        derivs = np.empty_like(state.DS[:, :, 1:])
        pe_update(prob, *state.nodes, tuple(zip(*derivs)))
        assert _words([derivs]) == _words([state.DS[:, :, 1:]])

    def test_float64_predictor_failure_falls_back_to_taylor(self):
        prob = make_mass_spring(precision=DDOUBLE)
        prob.native.first_rhs = lambda X, P: (P / 0.0, X / 0.0)
        table = coeff_table(2, "zds", 0.1, DDOUBLE)
        state, plain = _block(prob, table), _block(_without_twin(make_mass_spring(precision=DDOUBLE)), table)
        init_block(state)
        init_block(plain)
        assert state.sweeps == plain.sweeps == 0
        assert _words([state.Y]) == _words([plain.Y])


class TestSolverConfig:
    """The problem sets the precision; ``SolverConfig.precision`` only checks it."""

    @pytest.mark.parametrize("name", ["mass_spring", "pendulum", "kepler"])
    def test_default_config_solves_at_the_problem_precision(self, name):
        prob = build_problem(name, DDOUBLE)
        configs = (SolverConfig(), SolverConfig(precision=DDOUBLE))
        table = coeff_table(2, "zds", _CATALOG_STEP[name], DDOUBLE)
        a, b = _block(prob, table), _block(prob, table)
        solve_block(a, configs[0])
        solve_block(b, configs[1])
        assert _words([a.Y]) == _words([b.Y]) and a.sweeps == b.sweeps
        a, b = (integrate(prob, "zds", 2, 6, 6 * _CATALOG_STEP[name], c) for c in configs)
        assert _words(a.xs + a.ps) == _words(b.xs + b.ps) and a.total_iter == b.total_iter

    @pytest.mark.parametrize("prec,other", [(DDOUBLE, NATIVE), (NATIVE, DDOUBLE)])
    def test_mismatched_precision_raises_wherever_a_config_is_taken(self, prec, other):
        prob = make_mass_spring(precision=prec)
        config = SolverConfig(precision=other)
        state = _block(prob, coeff_table(2, "zds", 0.1, prec))
        calls = [
            lambda: solve_block(state, config),
            lambda: init_block(state, config),
            lambda: integrate(prob, "zds", 2, 4, 0.4, config),
            lambda: integrate_sv(prob, 2, 4, 0.4, config),
        ]
        for call in calls:
            with pytest.raises(ConfigurationError, match=f"^solver precision {other.name} does not"):
                call()

    @pytest.mark.parametrize("tol", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ConfigurationError, match="need a finite tol > 0"):
            SolverConfig(tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ConfigurationError, match=f"need max_iter >= 1, got max_iter={max_iter}"):
            SolverConfig(max_iter=max_iter)

    def test_smallest_settings_accepted(self):
        config = SolverConfig(tol=5e-324, max_iter=1)
        assert (config.tol, config.max_iter) == (5e-324, 1)


def max_position_error(prob, traj):
    err = 0.0
    for t, X in zip(traj.times, traj.xs):
        Xe, _ = prob.exact_solution(t)
        err = max(err, float(np.max(np.abs(X - Xe))))
    return err


class TestIntegrate:
    def test_single_block_node_count(self):
        prob = make_mass_spring()
        traj = integrate(prob, "zds", 4, 4, 0.4, SolverConfig())
        assert len(traj.times) == 5
        assert traj.times[0] == 0.0
        assert traj.n_blocks == 1

    def test_partial_final_block(self):
        prob = make_mass_spring()
        traj = integrate(prob, "zd", 2, 5, 0.5, SolverConfig())
        assert len(traj.times) == 6
        assert traj.n_blocks == 3  # 2 + 2 + 1
        assert max_position_error(prob, traj) < 1e-4

    def test_mass_spring_zd_r2_table_value(self):
        prob = make_mass_spring()
        traj = integrate(prob, "zd", 2, 960, 100.0, SolverConfig())
        err = max_position_error(prob, traj)
        assert err == pytest.approx(2.25e-4, rel=2.0)  # within factor 3

    def test_mass_spring_zds_r1_table_value(self):
        prob = make_mass_spring()
        traj = integrate(prob, "zds", 1, 960, 100.0, SolverConfig())
        err = max_position_error(prob, traj)
        assert err == pytest.approx(1.41e-5, rel=2.0)

    def test_pendulum_zds_r2_endpoint(self):
        prob = make_pendulum()
        traj = integrate(prob, "zds", 2, 960, 100.0, SolverConfig())
        err = abs(float(traj.xs[-1][0, 0]) - (-0.2633498226088722))
        assert err == pytest.approx(6.93e-9, rel=2.0)

    def test_observer_contract(self):
        prob = make_mass_spring()
        seen = []
        integrate(prob, "zd", 3, 7, 0.7, SolverConfig(),
                  observer=lambda idx, t, X, P: seen.append((idx, float(t))))
        assert [i for i, _ in seen] == list(range(8))
        times = [t for _, t in seen]
        assert times == sorted(times)

    def test_n_less_than_r_rejected(self):
        prob = make_mass_spring()
        with pytest.raises(ConfigurationError):
            integrate(prob, "zd", 4, 2, 1.0, SolverConfig())

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_non_finite_span_rejected(self, T):
        with pytest.raises(ConfigurationError):
            integrate(make_mass_spring(), "zds", 2, 10, T, SolverConfig())

    @pytest.mark.parametrize("store_every", [0, -1])
    def test_store_every_below_one_rejected(self, store_every):
        with pytest.raises(ConfigurationError, match="store_every >= 1"):
            integrate(make_mass_spring(), "zds", 2, 10, 1.0, SolverConfig(), store_every=store_every)

    def test_unknown_formulation_rejected(self):
        with pytest.raises(ConfigurationError, match="^unknown formulation 'zx'$"):
            integrate(make_mass_spring(), "zx", 2, 10, 1.0)

    def test_run_accounting_identity(self):
        prob = make_pendulum()
        traj = integrate(prob, "zds", 2, 100, 10.0, SolverConfig())
        # one init unit per block plus sweeps; R PE calls each, plus the
        # t=0 anchor evaluation
        assert traj.pe1_calls == 2 * traj.total_iter + 1


def measured_orders(prob, form, R, Ns, T=100.0):
    errs = []
    for N in Ns:
        traj = integrate(prob, form, R, N, T, SolverConfig())
        errs.append(max_position_error(prob, traj))
    orders = []
    for (N1, e1), (N2, e2) in zip(zip(Ns, errs), zip(Ns[1:], errs[1:])):
        if e1 > 1e-13 and e2 > 1e-13:
            orders.append(math.log(e1 / e2) / math.log(N2 / N1))
    return errs, orders


class TestConvergenceOrders:
    @pytest.mark.parametrize(
        "form,R,expected",
        [("zd", 2, 4.0), ("zd", 4, 6.0), ("zds", 1, 4.0), ("zds", 2, 6.0)],
    )
    def test_mass_spring_orders(self, form, R, expected):
        prob = make_mass_spring()
        Ns = [120, 240, 480, 960]
        _, orders = measured_orders(prob, form, R, Ns)
        assert orders, "no order measurable above the error floor"
        for o in orders[-2:]:
            assert abs(o - expected) <= 0.4


class TestPolynomialReproduction:
    @staticmethod
    def _poly_problem(coeffs):
        # H(x, p) = q(p) - x gives dx/dt = q'(p), dp/dt = 1; with p(0) = 0
        # the position reproduces x0 + q(t) - q(0) and p(t) = t.
        q = np.polynomial.Polynomial(coeffs)
        dq = q.deriv()
        ddq = dq.deriv()

        def first_rhs(X, P):
            return dq(P), np.ones_like(X)

        def second_rhs(X, P, DX, DP):
            return ddq(P) * DP, np.zeros_like(X)

        return HamiltonianProblem(
            name="poly",
            x0=np.array([[0.0]]), p0=np.array([[0.0]]),
            hamiltonian=lambda X, P: q(P[0, 0]) - X[0, 0],
            first_rhs=first_rhs,
            second_rhs=second_rhs,
        ), q

    @pytest.mark.parametrize("form,R", [("zd", 1), ("zd", 3), ("zds", 1), ("zds", 2)])
    def test_exactness_degree_polynomial(self, form, R):
        degree = Formulation.parse(form).exactness_degree(R)
        rng = np.random.default_rng(degree + R)
        coeffs = rng.uniform(-1, 1, degree + 1)
        prob, q = self._poly_problem(coeffs)
        # N divisible by R: a partial final block would drop the degree
        traj = integrate(prob, form, R, 4 * R, 2.0, SolverConfig(tol=1e-15, max_iter=400))
        scale = max(1.0, max(abs(q(t) - q(0.0)) for t in traj.times))
        for t, X in zip(traj.times, traj.xs):
            assert abs(float(X[0, 0]) - (q(t) - q(0.0))) <= 1e-10 * scale


class TestSymmetryAndInvariance:
    def test_xp_symmetry(self):
        # integrating H~(x, p) = H(p, -x) from (x~, p~)(0) = (-p0, x0) must
        # reproduce (x~, p~)(t) = (-p(t), x(t)) node for node
        base = make_two_spring()

        def first_rhs(X, P):
            bx, bp = base.first_rhs(P, -X)
            return -bp, bx

        def second_rhs(X, P, DX, DP):
            sx, sp = base.second_rhs(P, -X, DP, -DX)
            return -sp, sx

        twisted = HamiltonianProblem(
            name="twisted",
            x0=-base.p0, p0=base.x0,
            hamiltonian=lambda X, P: base.hamiltonian(P, -X),
            first_rhs=first_rhs,
            second_rhs=second_rhs,
        )
        tol = 1e-14
        cfg = SolverConfig(tol=tol)
        t1 = integrate(base, "zds", 2, 64, 4.0, cfg)
        t2 = integrate(twisted, "zds", 2, 64, 4.0, cfg)
        worst = 0.0
        for Xb, Pb, Xt, Pt in zip(t1.xs, t1.ps, t2.xs, t2.ps):
            worst = max(worst, float(np.max(np.abs(Xt - (-Pb)))), float(np.max(np.abs(Pt - Xb))))
        assert worst <= 100 * tol
