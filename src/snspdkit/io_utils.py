"""Serialization helpers: output headers, CSV/JSON writers, field dumps.

Every written file starts with a header carrying the tool version and the
configuration digest (and nothing volatile, so repeated runs with the same
inputs are byte-identical). JSON written to stdout or disk uses a canonical
form (sorted keys) so parse -> re-serialize round-trips exactly.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from ._numpy import np
from .errors import ConfigError
from .modes import modal_absorption

TOOL = "snspdkit"


def header_line(config_digest: str = "none") -> str:
    return f"# {TOOL} {__version__} config_digest={config_digest}"


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=2)


class OutputDir:
    """All file output funnels through one directory."""

    def __init__(self, base: str | Path):
        self.base = Path(base)
        try:
            self.base.mkdir(parents=True, exist_ok=True)
        except OSError as exc:   # a file in the way, or no permission
            raise ConfigError(f"output directory {base} cannot be created: {exc}") from exc

    def path(self, name: str) -> Path:
        p = (self.base / name).resolve()
        if self.base.resolve() not in p.parents and p != self.base.resolve():
            raise ConfigError(f"output path {name!r} escapes the output directory")
        p.parent.mkdir(parents=True, exist_ok=True)
        return p


@contextmanager
def _writing(path: Path):
    """``path`` open for writing text; an OSError (a directory in the way, no
    permission, a full disk) is a ConfigError naming the file."""
    try:
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"output file {path} cannot be written: {exc}") from exc


def write_csv(path: Path, columns: list[str], rows, config_digest: str = "none") -> None:
    with _writing(path) as fh:
        fh.write(header_line(config_digest) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def _format_cell(v) -> str:
    # numpy scalars format as Python ones: under numpy >= 2 their repr is
    # "np.float64(...)", and str(np.True_) is "True"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return str(v)


def write_json(path: Path, payload: dict, config_digest: str = "none") -> None:
    header = {"tool": TOOL, "version": __version__, "config_digest": config_digest}
    body = {"_header": header, **payload}
    with _writing(path) as fh:
        fh.write(canonical_json(body) + "\n")


def write_matrix(path: Path, array: np.ndarray, config_digest: str = "none") -> None:
    """Delimited-text matrix; complex entries as re+imj tokens.

    Each row is formatted by one ``%`` operation over Python floats; complex
    rows are passed as interleaved (re, im) pairs.
    """
    array = np.asarray(array)
    if np.iscomplexobj(array):
        cell = "%.9e%+.9ej"
        rows = np.stack([array.real, array.imag], axis=-1).reshape(array.shape[0], -1).tolist()
    else:
        cell = "%.9e"
        rows = array.tolist()
    line = "\t".join([cell] * array.shape[1]) + "\n"
    with _writing(path) as fh:
        fh.write(header_line(config_digest) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def export_grid(grid, out: OutputDir, prefix: str = "grid", config_digest: str = "none") -> list[str]:
    """Permittivity grid as a delimited-text matrix + JSON coordinate sidecar."""
    eps_file = out.path(f"{prefix}_eps.txt")
    write_matrix(eps_file, grid.eps, config_digest)
    sidecar = out.path(f"{prefix}_coords.json")
    write_json(sidecar, {
        "x_edges_m": list(map(float, grid.x_edges_m)),
        "y_edges_m": list(map(float, grid.y_edges_m)),
        "wavelength_m": grid.wavelength_m,
        "eps_matrix_file": eps_file.name,
        "layout": "rows follow x cells, columns follow y cells",
    }, config_digest)
    return [eps_file.name, sidecar.name]


def export_mode_fields(mode, out: OutputDir, prefix: str = "mode", config_digest: str = "none") -> list[str]:
    """One delimited-text matrix per field component + JSON header."""
    names = []
    for comp in ("hx", "hy", "hz", "ex", "ey", "ez"):
        p = out.path(f"{prefix}_{comp}.txt")
        write_matrix(p, getattr(mode, comp), config_digest)
        names.append(p.name)
    head = out.path(f"{prefix}_header.json")
    write_json(head, {
        "n_eff": {"re": mode.n_eff.real, "im": mode.n_eff.imag},
        "alpha_per_cm": modal_absorption(mode),
        "te_fraction": mode.te_fraction,
        "polarization": mode.polarization,
        "wavelength_m": mode.grid.wavelength_m,
        "x_nodes_m": list(map(float, mode.grid.x_edges_m)),
        "y_nodes_m": list(map(float, mode.grid.y_edges_m)),
        "component_files": names,
        "h_components_on": "nodes",
        "e_components_on": "cell centers",
    }, config_digest)
    return names + [head.name]


def sweep_to_rows(points) -> tuple[list[str], list[list]]:
    """Plot-ready tabular form of sweep or optimizer points."""
    param_names = sorted({k for p in points for k in p.params})
    columns = param_names + [
        "re_n_eff", "im_n_eff", "alpha_per_cm", "te_fraction", "margin_um", "feasible", "status",
    ]
    rows = []
    for p in points:
        rows.append(
            [p.params.get(name, "") for name in param_names]
            + [
                "" if p.n_eff is None else p.n_eff.real,
                "" if p.n_eff is None else p.n_eff.imag,
                "" if p.alpha_per_cm is None else p.alpha_per_cm,
                "" if p.te_fraction is None else p.te_fraction,
                "" if p.margin_m is None else p.margin_m * 1e6,
                p.feasible,
                p.status,
            ]
        )
    return columns, rows


def export_count_record(record, out: OutputDir, prefix: str = "counts", config_digest: str = "none") -> list[str]:
    """CountRecord as CSV (timestamp_s, flag) + JSON metadata header file."""
    csv_file = out.path(f"{prefix}.csv")
    write_csv(
        csv_file, ["timestamp_s", "flag"],
        zip(map(float, record.timestamps_s), record.flags),
        config_digest,
    )
    meta = out.path(f"{prefix}_meta.json")
    write_json(meta, {
        "events": len(record),
        "dead_time_s": record.dead_time_s,
        **record.metadata,
    }, config_digest)
    return [csv_file.name, meta.name]
