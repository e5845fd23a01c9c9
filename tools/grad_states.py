"""Write logp_grad of the benchmark's models at fixed states, or compare
two such files.

    PYTHONPATH=src python tools/grad_states.py OUT.npz
    python tools/grad_states.py --compare A.npz B.npz

The models are the benchmark's own, built by its seed-7 set-up of the
full-size workloads (``perfbench/workloads.py``): gam-hill (gam-fit) and
longitudinal-hill (longitudinal-fit) on a 5-wave, 300-participant panel
after a CSV round trip, and the BRC model with independent fatigue and 40
basis functions per surface axis (brc-map). Each is evaluated at 500
seeded states in [-3, 3] and 500 in [-50, 50]. Run it once per checkout;
``--compare`` prints, per model, how many states only one side rejects and
the largest |A - B| / max(1, |A|) of logp and of the gradient over the
states both sides accept, and exits 1 when the files differ, as ``diff``
does.
"""

import pathlib
import sys
import tempfile

import numpy as np

STATES = ((3.0, 500), (50.0, 500))
SEED = 7
#: each model's name in the files, with the workload that builds it
WORKLOADS = {"gam-hill": "gam-fit", "longitudinal-hill": "longitudinal-fit",
             "brc-independent": "brc-map"}


def build_models():
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                           / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for name, bench in WORKLOADS.items():
            workload = workloads.make(bench, workloads.FULL, tmp)
            workload.setup(SEED, workloads.Stages())
            yield name, workload.model


def write(out):
    arrays = {}
    for name, model in build_models():
        rng = np.random.default_rng(SEED)
        thetas = np.vstack([rng.uniform(-w, w, (n, model.layout.size))
                            for w, n in STATES])
        logp, grad = zip(*map(model.logp_grad, thetas))
        arrays[f"{name}/logp"] = np.array(logp)
        arrays[f"{name}/grad"] = np.array(grad)
    np.savez(out, **arrays)


def compare(path_a, path_b) -> bool:
    """Per model: the states A rejects, those only one side rejects, and
    the largest relative differences where both accept. True when the
    files hold the same models and values."""
    a, b = np.load(path_a), np.load(path_b)
    if sorted(a.files) != sorted(b.files):
        print(f"the files hold different arrays: {sorted(a.files)} and "
              f"{sorted(b.files)}")
        return False
    same = True
    print("model              rejected  one-side  max-rel-logp  max-rel-grad")
    for name in sorted({k.split("/")[0] for k in a.files}):
        ok_a = np.isfinite(a[f"{name}/logp"])
        ok_b = np.isfinite(b[f"{name}/logp"])
        both = ok_a & ok_b
        la, lb = a[f"{name}/logp"][both], b[f"{name}/logp"][both]
        ga, gb = a[f"{name}/grad"][both], b[f"{name}/grad"][both]
        rel_logp = (np.abs(la - lb) / np.maximum(1.0, np.abs(la))
                    ).max(initial=0.0)
        rel_grad = (np.abs(ga - gb) / np.maximum(1.0, np.abs(ga))
                    ).max(initial=0.0)
        one_side = int((ok_a != ok_b).sum())
        same &= one_side == 0 and rel_logp == 0.0 and rel_grad == 0.0
        print(f"{name:18s} {int((~ok_a).sum()):8d}  {one_side:8d}"
              f"  {rel_logp:12.3e}  {rel_grad:12.3e}")
    return same


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(0 if compare(*sys.argv[2:]) else 1)
    elif len(sys.argv) == 2:
        write(sys.argv[1])
    else:
        sys.exit(__doc__)
