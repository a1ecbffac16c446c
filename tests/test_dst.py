"""Golden and example-level tests of the belief-function primitives."""

import numpy as np
import pytest

from evigrid.dst import (FrameOfDiscernment, MassFunction, Refining,
                         TotalConflictError, combine_conjunctive,
                         combine_dempster, combine_disjunctive, discount,
                         pignistic, refine, specialize)

from oracles import conjunctive_oracle, dempster_oracle, disjunctive_oracle

AB = FrameOfDiscernment(("a", "b"))
M1 = MassFunction(AB, {"a": 0.2, "b": 0.6, "ab": 0.2})
M2 = MassFunction(AB, {"a": 0.7, "b": 0.1, "ab": 0.2})


class TestFrame:
    def test_basic(self):
        fr = FrameOfDiscernment(("x", "y", "z"))
        assert fr.n == 3
        assert fr.size == 8
        assert fr.omega == 7
        assert fr.mask("xz") == 0b101
        assert fr.labels_of(0b110) == ("y", "z")

    def test_invalid(self):
        with pytest.raises(ValueError):
            FrameOfDiscernment(())
        with pytest.raises(ValueError):
            FrameOfDiscernment(("a", "a"))
        with pytest.raises(ValueError):
            FrameOfDiscernment(("a", ""))
        with pytest.raises(ValueError):
            FrameOfDiscernment([str(i) for i in range(17)])


class TestMassFunction:
    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            MassFunction(AB, {"a": 0.5, "b": 0.6})
        with pytest.raises(ValueError):
            MassFunction(AB, {"a": -0.1, "b": 1.1})
        with pytest.raises(ValueError, match="^mass nan on subset 1 is not finite$"):
            MassFunction(AB, [0.0, np.nan, 0.0, 1.0])

    def test_tiny_drift_renormalized(self):
        m = MassFunction(AB, {"a": 0.5, "b": 0.5 + 5e-10})
        assert m.masses.sum() == pytest.approx(1.0, abs=0)

    def test_empty_mass_needs_flag(self):
        with pytest.raises(ValueError):
            MassFunction(AB, {"": 0.2, "ab": 0.8})
        m = MassFunction(AB, {"": 0.2, "ab": 0.8}, unnormalized=True)
        assert m.conflict == pytest.approx(0.2)

    def test_vacuous(self):
        m = MassFunction.vacuous(AB)
        assert m.is_vacuous()
        assert m["ab"] == 1.0


class TestConjunctive:
    def test_formula_not_printed_table(self):
        # The published example table lists a: 0.34, b: 0.18 for these inputs,
        # which disagrees with the conjunctive formula itself; the empty-set
        # and full-frame entries (0.44 / 0.04) agree.  The implementation
        # follows the formula, cross-checked by the brute-force oracle.
        out = combine_conjunctive(M1, M2)
        expect = conjunctive_oracle(M1, M2)
        assert np.allclose(out.masses, expect, atol=1e-12)
        assert out.conflict == pytest.approx(0.44, abs=1e-9)
        assert out["a"] == pytest.approx(0.32, abs=1e-9)
        assert out["b"] == pytest.approx(0.20, abs=1e-9)
        assert out["ab"] == pytest.approx(0.04, abs=1e-9)

    def test_vacuous_neutral(self):
        out = combine_conjunctive(MassFunction.vacuous(AB), M2)
        assert np.allclose(out.masses, M2.masses)

    def test_frame_mismatch(self):
        other = MassFunction(FrameOfDiscernment(("x", "y")), {"x": 1.0})
        with pytest.raises(ValueError, match="frame mismatch"):
            combine_conjunctive(M1, other)


class TestDempster:
    def test_normalized_oracle_values(self):
        out = combine_dempster(M1, M2)
        assert np.allclose(out.masses, dempster_oracle(M1, M2), atol=1e-12)
        assert out["a"] == pytest.approx(0.32 / 0.56, abs=1e-9)
        assert out["b"] == pytest.approx(0.20 / 0.56, abs=1e-9)
        assert out["ab"] == pytest.approx(0.04 / 0.56, abs=1e-9)
        assert out.conflict == 0.0

    def test_total_conflict(self):
        ma = MassFunction(AB, {"a": 1.0})
        mb = MassFunction(AB, {"b": 1.0})
        with pytest.raises(TotalConflictError, match="total conflict"):
            combine_dempster(ma, mb)


class TestDisjunctive:
    def test_table_values(self):
        out = combine_disjunctive(M1, M2)
        assert out["a"] == pytest.approx(0.14, abs=1e-9)
        assert out["b"] == pytest.approx(0.06, abs=1e-9)
        assert out["ab"] == pytest.approx(0.80, abs=1e-9)
        assert np.allclose(out.masses, disjunctive_oracle(M1, M2), atol=1e-12)

    def test_vacuous_absorbs(self):
        out = combine_disjunctive(MassFunction.vacuous(AB), M1)
        assert out.is_vacuous()

    def test_idempotent_certainty(self):
        ma = MassFunction(AB, {"a": 1.0})
        assert combine_disjunctive(ma, ma)["a"] == 1.0


class TestDiscount:
    def test_table_values(self):
        out = discount(M1, 0.1)
        assert out["a"] == pytest.approx(0.18, abs=1e-9)
        assert out["b"] == pytest.approx(0.54, abs=1e-9)
        assert out["ab"] == pytest.approx(0.28, abs=1e-9)

    def test_identity_and_vacuous(self):
        assert np.allclose(discount(M1, 0.0).masses, M1.masses)
        assert discount(M1, 1.0).is_vacuous()

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            discount(M1, 1.5)
        with pytest.raises(ValueError):
            discount(M1, -0.1)


class TestPignistic:
    def test_table_values(self):
        bet = pignistic(M1)
        assert bet[0] == pytest.approx(0.3, abs=1e-9)
        assert bet[1] == pytest.approx(0.7, abs=1e-9)

    def test_vacuous_uniform(self):
        fr = FrameOfDiscernment(("p", "q", "r", "s"))
        assert np.allclose(pignistic(MassFunction.vacuous(fr)), 0.25)

    def test_three_label_example(self):
        fr = FrameOfDiscernment(("a", "b", "c"))
        m = MassFunction(fr, {"a": 0.5, "ab": 0.5})
        bet = pignistic(m)
        assert np.allclose(bet, [0.75, 0.25, 0.0])

    def test_rejects_conflict(self):
        conj = combine_conjunctive(M1, M2)
        with pytest.raises(ValueError):
            pignistic(conj)


class TestRefine:
    COARSE = FrameOfDiscernment(("F", "O"))
    FINE = FrameOfDiscernment(("F", "I", "U", "S", "M"))
    R = Refining(COARSE, FINE, {"F": "F", "O": "IUSM"})

    def test_relabeling(self):
        m = MassFunction(self.COARSE, {"F": 0.7, "O": 0.2, "FO": 0.1})
        out = refine(m, self.R)
        assert out["F"] == pytest.approx(0.7)
        assert out["IUSM"] == pytest.approx(0.2)
        assert out["FIUSM"] == pytest.approx(0.1)

    def test_vacuous(self):
        assert refine(MassFunction.vacuous(self.COARSE), self.R).is_vacuous()

    def test_two_focal(self):
        m = MassFunction(self.COARSE, {"F": 0.5, "O": 0.5})
        out = refine(m, self.R)
        assert out["F"] == pytest.approx(0.5)
        assert out["IUSM"] == pytest.approx(0.5)

    def test_invalid_refining(self):
        with pytest.raises(ValueError):
            Refining(self.COARSE, self.FINE, {"F": "F"})          # missing O
        with pytest.raises(ValueError):
            Refining(self.COARSE, self.FINE, {"F": "F", "O": "I"})  # not covering


class TestSpecialize:
    def test_identity(self):
        s = np.eye(AB.size)
        out = specialize(M1, s)
        assert np.allclose(out.masses, M1.masses)

    def test_partial_transfer(self):
        m = MassFunction(AB, {"ab": 1.0})
        s = np.eye(AB.size)
        s[AB.mask("ab"), AB.mask("ab")] = 0.4
        s[AB.mask("a"), AB.mask("ab")] = 0.6
        out = specialize(m, s)
        assert out["a"] == pytest.approx(0.6)
        assert out["ab"] == pytest.approx(0.4)

    def test_bad_columns(self):
        s = np.eye(AB.size)
        s[0, 3] = 0.5  # column no longer sums to 1
        with pytest.raises(ValueError, match="sums to"):
            specialize(M1, s)

    def test_transfer_outside_source(self):
        s = np.eye(AB.size)
        s[AB.mask("b"), AB.mask("a")] = 1.0
        s[AB.mask("a"), AB.mask("a")] = 0.0
        with pytest.raises(ValueError, match="outside"):
            specialize(M1, s)
