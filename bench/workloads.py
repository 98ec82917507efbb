"""The benchmark's workloads: experiment configs generated from a seed.

Each workload is an INI experiment file in the format ``saddlesplit run``
reads, plus (for ``vi_polymatrix``) one adjustment the INI format cannot
express.  The seed goes into ``[experiment] seed`` and is passed to
``cli.parse_config``; it draws the random polymatrix instances.  The
saddle and chain instances are fixed constructions, so there the seed
leaves the inputs unchanged.

``small=True`` gives a reduced grid of the same shape for smoke tests.
"""

import dataclasses

WORKLOADS = ("saddle_grid", "vi_polymatrix", "chain_closed_form")

WHY = {
    "saddle_grid": (
        "the typical user grid: projected-gradient gap estimates take most "
        "of its time while ledger and oracles stay small, so gap-certificate "
        "work shows here"),
    "vi_polymatrix": (
        "the only path through decoupled_vi_run: dense spectral_norm in every "
        "VI gap call, and gradient blocks solved by residual_agd versus "
        "anchored_eg in the same decoupled layer"),
    "chain_closed_form": (
        "every gap is closed-form, so gap changes should leave it flat; time "
        "is oracle matvecs, ledger copies, baseline loops and local solves; "
        "keeps the ROADMAP 3 overruns visible"),
}


def _section(name, **keys):
    body = "".join(f"{k} = {v}\n" for k, v in keys.items())
    return f"[{name}]\n{body}\n"


def _experiment(seed, epsilons, solvers):
    return _section("experiment", epsilons=list(epsilons),
                    solvers=", ".join(solvers), seed=seed, check_bounds="true")


def config_text(workload, seed, small=False):
    """The experiment file for `workload` at `seed`."""
    all_solvers = ("decoupled", "extragradient", "local_gda")
    if workload == "saddle_grid":
        n_small, n_smooth, k = (2, 2, 3) if small else (4, 8, 10)
        eps = (0.2, 0.1) if small else (0.2, 0.1, 0.05, 0.02)
        return (_experiment(seed, eps, all_solvers)
                + _section("instance.scsc_balanced", kind="scsc", mu_x=1.0,
                           mu_y=1.0, coupling=1.0, n=n_small)
                + _section("instance.scsc_coupled", kind="scsc", mu_x=1.0,
                           mu_y=1.0, coupling=2.0, n=n_small)
                + _section("instance.scsc_smooth", kind="scsc", mu_x=20.0,
                           mu_y=20.0, coupling=1.0, n=n_smooth)
                + _section("instance.hard_xy", kind="hard_xy", L=1.0, D=1.0,
                           k=k))
    if workload == "vi_polymatrix":
        dim = 10 if small else 100
        eps = (0.1,) if small else (0.1, 0.05)
        text = _experiment(seed, eps, ("decoupled",))
        for name in ("poly_a", "poly_b"):
            text += _section(f"instance.{name}", kind="random_polymatrix",
                             dims=[dim] * 3, diag=0.5)
        return text
    if workload == "chain_closed_form":
        k_xy, k_side = (20, 5) if small else (500, 50)
        eps = (0.05, 0.02) if small else (0.02, 0.01, 0.005, 0.002)
        text = (_experiment(seed, eps, all_solvers)
                + _section("instance.hard_xy", kind="hard_xy", L=1.0, D=1.0,
                           k=k_xy))
        for side in ("x", "y"):
            text += _section(f"instance.hard_{side}", kind=f"hard_{side}",
                             L=100.0, D=1.0, k=k_side)
        return text
    raise ValueError(f"unknown workload {workload!r}")


def finish_config(workload, config):
    """Apply what the INI format cannot say.

    ``vi_polymatrix`` runs each instance a second time with
    ``block_is_gradient`` off, which routes its blocks to ``anchored_eg``
    instead of ``residual_agd``.
    """
    if workload == "vi_polymatrix":
        config.instances += [
            (f"{iid}_eg", dataclasses.replace(
                problem, block_is_gradient=[False] * problem.K))
            for iid, problem in config.instances]
    return config
