"""Command-line interface.

Every numeric flag carries its unit in its name. Each subcommand prints a
human-readable table by default or machine-readable JSON with ``--json``
(canonical form: parse -> re-serialize is byte-identical). Files are
written only under the output directory, resolved as: ``--out`` flag, then
the ``SNSPDKIT_OUT`` environment variable, then the config's
``output_dir``. Exit codes: 0 success; 2 config, 3 domain, 4 convergence,
5 inconsistency errors; 1 unexpected failure.
"""

import math
import os
import sys

import click

from . import __version__, detector as det
from .config import PULSE_RISE_PS, default_config_path, load_project_config
from .errors import ConfigError, ConvergenceError, DomainError, SnspdKitError
from .fabry_perot import FringeData, extract_coupling, read_fringe_scan
from .io_utils import (OutputDir, canonical_json, export_count_record, export_grid,
                       export_mode_fields, export_pulse_trace, sweep_to_rows, write_csv)
from .modes import modal_absorption, solve_cross_section
from .pipeline import STAGES, count_run, pulse_figures, run_reproduce, write_manifest
from .sweep import maximize_alpha, run_sweep

ENV_OUTPUT_DIR = "SNSPDKIT_OUT"


def emit(payload: dict, as_json: bool) -> None:
    if as_json:
        click.echo(canonical_json(payload))
    else:
        width = max(len(k) for k in payload)
        for key, value in payload.items():
            click.echo(f"{key.ljust(width)}  {value}")


def _resolve_out(flag_value: str | None, config) -> OutputDir:
    if flag_value:
        return OutputDir(flag_value)
    env = os.environ.get(ENV_OUTPUT_DIR)
    if env:
        return OutputDir(env)
    return OutputDir(config.output_dir)


class _FiniteFloat(click.ParamType):
    """A float flag: ``nan`` and ``inf`` are usage errors, as config numbers
    must be finite and JSON has no spelling for them."""

    name = "float"

    def convert(self, value, param, ctx):
        number = click.FLOAT.convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return number


FINITE_FLOAT = _FiniteFloat()

config_option = click.option(
    "--config", "config_path", type=click.Path(), default=None,
    help="Project config JSON (defaults to the shipped configuration).")
json_option = click.option("--json", "as_json", is_flag=True, help="Emit JSON on stdout.")
out_option = click.option("--out", "out_dir", type=click.Path(), default=None,
                          help="Output directory (overrides SNSPDKIT_OUT and the config).")


def _load(config_path):
    return load_project_config(config_path if config_path else default_config_path())


def _sweep_spec(config, index: int):
    if not 0 <= index < len(config.sweeps):
        raise ConfigError(f"sweep index {index} out of range: config has {len(config.sweeps)} sweeps")
    return config.sweeps[index]


class _ExitCodes(click.Group):
    """Maps a toolkit error from any subcommand to ``error (<Class>): <message>``
    on stderr and the error's exit code; click's own usage errors pass through."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SnspdKitError as exc:
            click.echo(f"error ({type(exc).__name__}): {exc}", err=True)
            sys.exit(getattr(exc, "exit_code", 1))


@click.group(cls=_ExitCodes)
@click.version_option(__version__, prog_name="snspdkit")
def main():
    """Waveguide single-photon-detector design toolkit."""


@main.command("solve-mode")
@config_option
@click.option("--mode-index", type=int, default=0, help="Index into the guided-mode list (sorted by Re n_eff).")
@click.option("--dump-fields", is_flag=True, help="Write field matrices for the selected mode.")
@click.option("--dump-grid", is_flag=True, help="Write the permittivity grid and coordinates.")
@json_option
@out_option
def cmd_solve_mode(config_path, mode_index, dump_fields, dump_grid, as_json, out_dir):
    """Solve guided modes of the configured cross-section."""
    config = _load(config_path)
    grid, modes = solve_cross_section(config.cross_section, config.policy, config.solver)
    if not modes:
        raise ConvergenceError("no guided modes found in the search window")
    if not 0 <= mode_index < len(modes):
        raise DomainError(f"mode index {mode_index} out of range: {len(modes)} guided modes found")
    mode = modes[mode_index]
    payload = {
        "n_eff_re": mode.n_eff.real,
        "n_eff_im": mode.n_eff.imag,
        "alpha_per_cm": modal_absorption(mode),
        "te_fraction": mode.te_fraction,
        "polarization": mode.polarization,
        "guided_modes_found": len(modes),
    }
    if dump_fields or dump_grid:
        out = _resolve_out(out_dir, config)
        files = []
        if dump_fields:
            files += export_mode_fields(mode, out, f"mode{mode_index}", config.digest)
        if dump_grid:
            files += export_grid(grid, out, "grid", config.digest)
        payload["files"] = files
        payload["output_dir"] = str(out.base)
    emit(payload, as_json)


@main.command("absorptance")
@click.option("--alpha-per-cm", type=FINITE_FLOAT, required=True)
@click.option("--length-um", type=FINITE_FLOAT, required=True)
@json_option
def cmd_absorptance(alpha_per_cm, length_um, as_json):
    """Beer-Lambert absorbed fraction after a propagation length."""
    value = det.absorptance(alpha_per_cm, length_um * 1e-4)
    emit({"alpha_per_cm": alpha_per_cm, "length_um": length_um, "absorptance": value}, as_json)


@main.command("pulse")
@config_option
@click.option("--rise-ps", type=FINITE_FLOAT, default=PULSE_RISE_PS)
@click.option("--fwhm-target-ns", type=FINITE_FLOAT, default=None,
              help="Fit the rise constant that reproduces this measured FWHM.")
@click.option("--dump-trace", is_flag=True, help="Write the pulse trace CSV.")
@json_option
@out_option
def cmd_pulse(config_path, rise_ps, fwhm_target_ns, dump_trace, as_json, out_dir):
    """Kinetic-inductance pulse metrics and counting-rate ceiling."""
    config = _load(config_path)
    payload, trace = pulse_figures(config.detector, rise_ps, fwhm_target_ns)
    if dump_trace:
        out = _resolve_out(out_dir, config)
        payload["files"] = export_pulse_trace(trace, out, config.digest)
        payload["output_dir"] = str(out.base)
    emit(payload, as_json)


@main.command("fp-extract")
@click.option("--tmax", type=FINITE_FLOAT, default=None, help="Maximum fringe transmission.")
@click.option("--tmin", type=FINITE_FLOAT, default=None, help="Minimum fringe transmission.")
@click.option("--single-pass", type=FINITE_FLOAT, default=1.0,
              help="Assumed single-pass propagation transmission (default 1).")
@click.option("--scan-csv", type=click.Path(), default=None,
              help="Fringe scan CSV (wavelength_nm, transmission), instead of --tmax/--tmin; "
                   "extrema by 95th/5th percentile.")
@json_option
def cmd_fp_extract(tmax, tmin, single_pass, scan_csv, as_json):
    """Facet reflectivity and coupling efficiency from fringe extrema."""
    if scan_csv is not None and tmax is None and tmin is None:
        fringes = read_fringe_scan(scan_csv, single_pass)
    elif scan_csv is None and tmax is not None and tmin is not None:
        fringes = FringeData(tmax, tmin, single_pass)
    else:
        raise DomainError("give either --tmax and --tmin, or --scan-csv")
    res = extract_coupling(fringes)
    emit({
        "t_max": fringes.t_max,
        "t_min": fringes.t_min,
        "contrast": res.contrast,
        "facet_reflectivity": res.facet_reflectivity,
        "mode_match": res.mode_match,
        "coupling": res.coupling,
    }, as_json)


@main.command("efficiency")
@click.option("--coupling", type=FINITE_FLOAT, default=None)
@click.option("--absorptance", "absorptance_", type=FINITE_FLOAT, required=True)
@click.option("--internal", type=FINITE_FLOAT, default=None)
@click.option("--dqe", type=FINITE_FLOAT, default=None,
              help="Measured DQE; inverts to the internal efficiency instead of taking --internal.")
@json_option
def cmd_efficiency(coupling, absorptance_, internal, dqe, as_json):
    """Efficiency chain SQE = coupling x absorptance x internal."""
    if (internal is None) == (dqe is None):
        raise DomainError("give exactly one of --internal or --dqe")
    if internal is None:
        internal = det.invert_internal(dqe, absorptance_)
    budget = det.EfficiencyBudget(1.0 if coupling is None else coupling, absorptance_, internal)
    payload = {"absorptance": absorptance_, "internal": internal, "dqe": budget.dqe}
    if coupling is not None:
        payload.update({"coupling": coupling, "sqe": budget.sqe})
    emit(payload, as_json)


@main.command("jitter")
@click.option("--total-ps", type=FINITE_FLOAT, required=True)
@click.option("--source-ps", type=FINITE_FLOAT, required=True)
@json_option
def cmd_jitter(total_ps, source_ps, as_json):
    """Intrinsic jitter from total and source jitter (quadrature model)."""
    intrinsic = det.jitter_deconvolve(total_ps * 1e-12, source_ps * 1e-12)
    emit({"total_ps": total_ps, "source_ps": source_ps,
          "intrinsic_ps": intrinsic * 1e12}, as_json)


@main.command("counts")
@config_option
@click.option("--power-pw", type=FINITE_FLOAT, required=True)
@click.option("--duration-s", type=FINITE_FLOAT, default=None,
              help="Simulated duration [s] (defaults to the config's counting.duration_s).")
@click.option("--seed", type=int, default=None, help="Override the derived stage seed.")
@json_option
@out_option
def cmd_counts(config_path, power_pw, duration_s, seed, as_json, out_dir):
    """Simulate a counting run and persist the event record."""
    config = _load(config_path)
    used_seed = config.stage_seed("counts") if seed is None else seed
    duration_s = config.counting.duration_s if duration_s is None else duration_s
    record = count_run(config, power_pw * 1e-12, duration_s, used_seed)
    out = _resolve_out(out_dir, config)
    files = export_count_record(record, out, "counts", config.digest)
    emit({
        "events": len(record),
        "measured_rate_hz": len(record) / duration_s,
        "expected_rate_hz": det.expected_count_rate(
            power_pw * 1e-12, config.cross_section.wavelength_m, record.metadata["sqe"],
            record.dead_time_s, record.metadata["dark_rate_hz"]),
        "seed": used_seed,
        "files": files,
        "output_dir": str(out.base),
    }, as_json)


def _emit_points(head: dict, result, name: str, config, out_dir, as_json, with_margin=False):
    """Write a sweep or optimizer run's points to the CSV ``name`` and emit
    ``head``, then the best point's fields (None when no point is feasible)."""
    out = _resolve_out(out_dir, config)
    p = out.path(name)
    write_csv(p, *sweep_to_rows(result.points), config.digest)
    best = result.best
    payload = {**head, "best_alpha_per_cm": None if best is None else best.alpha_per_cm,
               "best_params": None if best is None else best.params}
    if with_margin:
        payload["best_margin_um"] = None if best is None or best.margin_m is None else best.margin_m * 1e6
    emit({**payload, "files": [p.name], "output_dir": str(out.base)}, as_json)


@main.command("sweep")
@config_option
@click.option("--index", type=int, default=0, help="Which sweep spec from the config to run.")
@json_option
@out_option
def cmd_sweep(config_path, index, as_json, out_dir):
    """Run a configured parameter sweep and export the table."""
    config = _load(config_path)
    result = run_sweep(config.cross_section, _sweep_spec(config, index), config.policy, config.solver)
    feasible_ok = sum(1 for q in result.points if q.feasible and q.status == "ok")
    _emit_points({"points": len(result.points), "feasible_ok": feasible_ok},
                 result, f"sweep_{index}.csv", config, out_dir, as_json)


@main.command("optimize")
@config_option
@click.option("--index", type=int, default=0, help="Which sweep spec from the config to refine.")
@click.option("--tolerance-nm", type=FINITE_FLOAT, default=5.0)
@json_option
@out_option
def cmd_optimize(config_path, index, tolerance_nm, as_json, out_dir):
    """Maximize modal absorption under the alignment-margin constraint."""
    config = _load(config_path)
    result = maximize_alpha(config.cross_section, _sweep_spec(config, index),
                            config.policy, config.solver, tolerance=tolerance_nm)
    _emit_points({"status": result.status, "iterations": result.iterations,
                  "evaluations": len(result.points)},
                 result, f"optimize_{index}_trace.csv", config, out_dir, as_json, with_margin=True)


@main.command("reproduce-paper")
@config_option
@click.option("--skip", "skips", type=click.Choice(STAGES), multiple=True,
              help="Stage to skip (repeatable); dependents are marked not-run.")
@json_option
@out_option
def cmd_reproduce(config_path, skips, as_json, out_dir):
    """Run the full benchmark pipeline and score every reference target."""
    config = _load(config_path)
    out = _resolve_out(out_dir, config)
    manifest = run_reproduce(config, out, tuple(skips))
    write_manifest(manifest, config, out)
    payload = {
        "all_pass": manifest.all_pass,
        "output_dir": str(out.base),
        "stages": {s.name: s.status for s in manifest.stages},
    }
    emit(payload, as_json)
    if not as_json:
        for s in manifest.stages:
            for c in s.checks:
                mark = "PASS" if c.passed else "FAIL"
                click.echo(f"  [{mark}] {s.name}/{c.name}: {c.value:.6g} in [{c.lo:.6g}, {c.hi:.6g}]")
    if not manifest.all_pass:
        sys.exit(1)


if __name__ == "__main__":
    main()
