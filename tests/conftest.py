import json
import math

import numpy as np
import pytest

from qchan import AmplitudeKernelSpec, BlochVector, QubitState, state_from_bloch


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def random_state(rng):
    """Factory for random (generally mixed) qubit states."""

    def make() -> QubitState:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        radius = rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
        return state_from_bloch(BlochVector.from_array(radius * direction))

    return make


@pytest.fixture
def chunk_normals():
    """Reference draws: chunk ``chunk`` of stream ``seed`` through numpy's
    own Philox, keyed by the one integer seed + 2^64 chunk, and read one row
    of ``count`` standard normals at a time."""

    def draw(seed, chunk, rows, count):
        generator = np.random.Generator(np.random.Philox(key=seed + (chunk << 64)))
        return np.array([generator.standard_normal(count) for _ in range(rows)])

    return draw


@pytest.fixture
def memory_kernel_march():
    """Reference solver: a trapezoidal product-integration march of the
    memory-kernel equation, second order in the step size and O(N^2) in
    the step count.  Returns u(t) = e^{i omega t} alpha(t) on ``steps``
    uniform steps of [0, t_max]."""

    def _march(spec: AmplitudeKernelSpec, t_max: float, steps: int) -> np.ndarray:
        """Trapezoidal product-integration march for u(t) = e^{i omega t} alpha(t)."""
        h = t_max / steps
        grid = np.arange(steps + 1) * h
        couplings_sq = np.array([abs(c) ** 2 for c, _ in spec.modes])
        detunings = np.array([spec.frequency - w for _, w in spec.modes])
        # transformed kernel Ktilde(s) = K(s) e^{i omega s}, exact on the grid
        kernel = (couplings_sq[None, :] * np.exp(1j * np.outer(grid, detunings))).sum(axis=1)

        u = np.zeros(steps + 1, dtype=complex)
        u[0] = 1.0
        k0 = kernel[0]
        integral = 0.0 + 0.0j  # trapezoid value of int_0^{t_n} Ktilde(t_n - s) u(s) ds
        lhs = 1.0 / h + h * k0 / 4.0
        for n in range(steps):
            partial = 0.5 * kernel[n + 1] * u[0]
            if n >= 1:
                partial += kernel[1 : n + 1][::-1] @ u[1 : n + 1]
            partial *= h
            u[n + 1] = (u[n] / h - 0.5 * (integral + partial)) / lhs
            integral = partial + 0.5 * h * k0 * u[n + 1]
        return u

    return _march


@pytest.fixture
def per_cell_writer():
    """Reference writer: the CLI's original per-cell CSV/JSON builder.
    Returns the text ``cli._write_output`` writes for (command, cfg, columns)."""
    from qchan.cli import _config_echo

    def _fmt(value) -> str:
        return format(float(value), ".17g")

    def _build(command: str, cfg: dict, columns: dict) -> str:
        # the flags pair (spellings, codes) as one text per row
        columns = {
            name: [values[0][code] for code in values[1]] if name == "flags" else values
            for name, values in columns.items()
        }
        if cfg["format"] == "json":
            payload = {"meta": {"command": command, "config": json.loads(_config_echo(cfg))}}
            cols = {}
            for name, values in columns.items():
                if name == "flags":
                    cols[name] = list(values)
                else:
                    cols[name] = [
                        None if math.isnan(float(v)) else float(v) for v in np.asarray(values)
                    ]
            payload["columns"] = cols
            text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        else:
            names = list(columns)
            lines = [f"# qchan {command}", f"# config = {_config_echo(cfg)}", ",".join(names)]
            length = len(columns[names[0]])
            arrays = [columns[n] for n in names]
            for i in range(length):
                cells = []
                for name, arr in zip(names, arrays):
                    cells.append(str(arr[i]) if name == "flags" else _fmt(arr[i]))
                lines.append(",".join(cells))
            text = "\n".join(lines) + "\n"
        return text

    return _build
