import numpy as np

from walkpovm import cli
from walkpovm.experiment import _FOLD_FLOOR


def cli_options() -> dict:
    """Subcommand -> sorted option strings its parser declares, leaving out -h/--help."""
    subcommands = cli.build_parser()._subparsers._group_actions[0].choices
    return {name: sorted(o for action in p._actions for o in action.option_strings
                         if o not in ("-h", "--help"))
            for name, p in subcommands.items()}


def random_unitary(rng) -> np.ndarray:
    """Haar-random 2x2 unitary (Ginibre + QR with phase fix)."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_rank1_povm(rng, n: int):
    """n rank-1 effects summing to the identity, from an n x 2 isometry."""
    a = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    f, _ = np.linalg.qr(a)  # columns orthonormal, so sum_i f_i^dag f_i = I
    return [np.outer(f[i].conj(), f[i]) for i in range(n)]


def assert_equal_upto_phase(a, b, tol=1e-10):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    t = np.trace(b.conj().T @ a)
    if abs(t) < 1e-9:
        idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
        t = a[idx] / b[idx]
    phase = t / abs(t)
    err = np.max(np.abs(a - phase * b))
    assert err <= tol, f"matrices differ by {err:.3g} beyond a global phase"


def fold_steps(damping: dict) -> list:
    """The steps at which ``experiment._walk_density`` folds a walk with this damping.

    A lazy walk carries scale, the product of the V met since its last fold,
    and folds where scale * V would fall below ``_FOLD_FLOOR``.
    """
    scale, steps = 1.0, []
    for s in sorted(damping):
        scale *= damping[s]
        if scale < _FOLD_FLOOR:
            scale = 1.0
            steps.append(s)
    return steps
