"""Social-contact intensity estimation with reporting-fatigue correction.

Subpackages and modules:

* :mod:`contactfatigue.domain`     -- survey records, CSV ingestion, designs
* :mod:`contactfatigue.kernels`    -- covariance kernels and reduced-rank GPs
* :mod:`contactfatigue.priors`     -- prior densities incl. the regularized
  horseshoe and its negatively-truncated variant
* :mod:`contactfatigue.models`     -- model families with analytic gradients
* :mod:`contactfatigue.inference`  -- dynamic HMC, MAP, diagnostics
* :mod:`contactfatigue.selection`  -- two-stage sparse variable selection
* :mod:`contactfatigue.pipeline`   -- sequential wave fitting and de-biasing
* :mod:`contactfatigue.evaluation` -- MAPE, coverage, PSIS-LOO
* :mod:`contactfatigue.simulator`  -- ground-truth synthetic data
* :mod:`contactfatigue.cli`        -- command-line front end
"""

__version__ = "0.1.0"
