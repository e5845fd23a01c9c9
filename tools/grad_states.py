"""Write logp_grad of the benchmark-shaped models at fixed states, or
compare two such files.

    PYTHONPATH=src python tools/grad_states.py OUT.npz
    python tools/grad_states.py --compare A.npz B.npz

The models are built through the public calls, as the benchmark builds
them: the seed-7 gam-hill and longitudinal-hill models of a 5-wave,
300-participant panel after a CSV round trip, and the seed-7 BRC model
with independent fatigue and 40 basis functions per surface axis. Each is
evaluated at 500 seeded states in [-3, 3] and 500 in [-50, 50]. Run it
once per checkout; ``--compare`` prints, per model, how many states only
one side rejects and the largest |A - B| / max(1, |A|) of logp and of the
gradient over the states both sides accept.
"""

import os
import sys
import tempfile

import numpy as np

STATES = ((3.0, 500), (50.0, 500))
SEED = 7


def build_models():
    from contactfatigue import cli
    from contactfatigue.domain import build_design, load_survey_csv
    from contactfatigue.models import (FatigueSpec, ModelSpec,
                                       brc_surface_config, build_model,
                                       make_brc_data)
    from contactfatigue.simulator import (ScenarioConfig, SurfaceScenario,
                                          panel_to_csv, simulate_brc_surface,
                                          simulate_panel)

    records, _ = simulate_panel(ScenarioConfig(waves=5, panel_size=300,
                                               seed=SEED))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.csv")
        panel_to_csv(records, path)
        loaded, _ = load_survey_csv(path, cli.scenario_schema(),
                                    rng=np.random.default_rng([SEED, 104729]))
    values = cli.read_config(None, {"seed": SEED})
    for name, features in (("gam-hill", cli.gam_feature_spec()),
                           ("longitudinal-hill", cli.scenario_feature_spec())):
        yield name, build_model(cli.model_spec_for(name, values),
                                build_design(loaded, features))
    sim = simulate_brc_surface(SurfaceScenario(seed=SEED))
    data = make_brc_data(**{k: sim[k] for k in (
        "y", "wave", "repeat", "age", "band", "n_participants", "s_prop",
        "population", "bands")})
    yield "brc-independent", build_model(ModelSpec(
        family="aggregated_brc",
        fatigue=FatigueSpec(kind="independent", max_repeat=data.max_repeat),
        hsgp_surface=brc_surface_config(40)), data)


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


def compare(path_a, path_b):
    """Per model: the states A rejects, those only one side rejects, and
    the largest relative differences where both accept."""
    a, b = np.load(path_a), np.load(path_b)
    print("model              rejected  one-side  max-rel-logp  max-rel-grad")
    for name in sorted({k.split("/")[0] for k in a.files}):
        ok_a = np.isfinite(a[f"{name}/logp"])
        ok_b = np.isfinite(b[f"{name}/logp"])
        both = ok_a & ok_b
        la, lb = a[f"{name}/logp"][both], b[f"{name}/logp"][both]
        ga, gb = a[f"{name}/grad"][both], b[f"{name}/grad"][both]
        rel_logp = np.abs(la - lb) / np.maximum(1.0, np.abs(la))
        rel_grad = np.abs(ga - gb) / np.maximum(1.0, np.abs(ga))
        print(f"{name:18s} {int((~ok_a).sum()):8d}"
              f"  {int((ok_a != ok_b).sum()):8d}"
              f"  {rel_logp.max(initial=0.0):12.3e}"
              f"  {rel_grad.max(initial=0.0):12.3e}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        compare(*sys.argv[2:])
    elif len(sys.argv) == 2:
        write(sys.argv[1])
    else:
        sys.exit(__doc__)
