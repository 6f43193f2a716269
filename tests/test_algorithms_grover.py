"""Tests for Grover's algorithm (paper E4)."""

import numpy as np
import pytest

from repro.algorithms import (
    diffuser_circuit,
    grover_circuit,
    grover_search,
    optimal_iterations,
    oracle_circuit,
    paper_diffuser,
    paper_grover_circuit,
    paper_oracle,
)
from repro.exceptions import CircuitError


class TestPaperExample:
    def test_oracle_is_single_cz(self):
        oracle = paper_oracle()
        assert len(oracle) == 1
        np.testing.assert_allclose(
            oracle.matrix, np.diag([1, 1, 1, -1])
        )

    def test_diffuser_gate_sequence(self):
        names = [type(op).__name__ for op in paper_diffuser()]
        assert names == [
            "Hadamard", "Hadamard", "PauliZ", "PauliZ", "CZ",
            "Hadamard", "Hadamard",
        ]

    def test_paper_result(self):
        """The paper: result '11' with probability 1.0000."""
        sim = paper_grover_circuit().simulate("00")
        assert sim.results == ["11"]
        np.testing.assert_allclose(sim.probabilities, [1.0])

    def test_blocks_are_labelled(self):
        gc = paper_grover_circuit()
        labels = [
            op.block_label for op in gc if hasattr(op, "block_label")
        ]
        assert labels == ["oracle", "diffuser"]


class TestOracle:
    @pytest.mark.parametrize(
        "marked", ["0", "1", "00", "01", "10", "11", "101", "0110"]
    )
    def test_flips_only_marked_phase(self, marked):
        n = len(marked)
        m = oracle_circuit(marked).matrix
        want = np.eye(1 << n, dtype=complex)
        idx = int(marked, 2)
        want[idx, idx] = -1
        np.testing.assert_allclose(m, want, atol=1e-12)

    def test_11_reduces_to_cz(self):
        oracle = oracle_circuit("11")
        assert len(oracle) == 1
        assert type(oracle[0]).__name__ == "CZ"

    def test_rejects_bad_strings(self):
        with pytest.raises(CircuitError):
            oracle_circuit("")
        with pytest.raises(CircuitError):
            oracle_circuit("012")


class TestDiffuser:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reflects_about_mean(self, n):
        """Diffuser = 2|s><s| - I up to global phase."""
        m = diffuser_circuit(n).matrix
        dim = 1 << n
        s = np.full(dim, 1 / np.sqrt(dim))
        want = 2 * np.outer(s, s) - np.eye(dim)
        k = np.argmax(np.abs(want))
        phase = m.flat[k] / want.flat[k]
        np.testing.assert_allclose(m, phase * want, atol=1e-12)

    def test_paper_diffuser_equivalent(self):
        a = paper_diffuser().matrix
        b = diffuser_circuit(2).matrix
        phase = b[0, 0] / a[0, 0]
        np.testing.assert_allclose(a * phase, b, atol=1e-12)


class TestIterationsAndSearch:
    def test_optimal_counts(self):
        assert optimal_iterations(2) == 1
        assert optimal_iterations(3) == 2
        assert optimal_iterations(4) == 3
        assert optimal_iterations(10) == 25

    def test_multiple_marked(self):
        # N=16, M=4 -> floor(pi/4 * 2) = 1
        assert optimal_iterations(4, nb_marked=4) == 1

    @pytest.mark.parametrize(
        "marked,min_p",
        [("11", 0.999), ("101", 0.9), ("1011", 0.9), ("11010", 0.99)],
    )
    def test_search_succeeds(self, marked, min_p):
        r = grover_search(marked)
        assert r.found == marked
        assert r.probability > min_p

    def test_quadratic_speedup_shape(self):
        """Iterations grow ~ sqrt(N): doubling n multiplies by ~2."""
        i3 = optimal_iterations(3)
        i5 = optimal_iterations(5)
        i7 = optimal_iterations(7)
        assert i5 / i3 == pytest.approx(2, abs=0.5)
        assert i7 / i5 == pytest.approx(2, abs=0.5)

    def test_explicit_iterations(self):
        r = grover_search("11", iterations=2)
        # over-rotation: '11' no longer certain
        assert r.iterations == 2
        assert r.distribution.get("11", 0) < 0.999

    def test_circuit_without_measurement(self):
        c = grover_circuit("11", measure=False)
        assert not c.has_measurement

    @pytest.mark.parametrize(
        "backend", ["kernel", "sparse", "einsum"], indirect=True
    )
    def test_backends_agree(self, backend):
        r = grover_search("110", backend=backend)
        assert r.found == "110"
