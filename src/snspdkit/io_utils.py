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
_FLAG_NAMES = ("dark", "photon")   # the count-record flag column, indexed by the photon mask


def header_line(config_digest: str) -> str:
    return f"# {TOOL} {__version__} config_digest={config_digest}"


def read_digest(path: Path) -> str | None:
    """The digest a written file's header carries (JSON ``_header`` or text first line), or None."""
    with open(path, encoding="utf-8") as fh:
        if path.suffix == ".json":
            return json.load(fh).get("_header", {}).get("config_digest")
        first, prefix = fh.readline().rstrip("\n"), header_line("")
    return first[len(prefix):] if first.startswith(prefix) else None


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


def write_csv(path: Path, columns: list[str], rows, config_digest: str) -> None:
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


def write_json(path: Path, payload: dict, config_digest: str) -> None:
    header = {"tool": TOOL, "version": __version__, "config_digest": config_digest}
    body = {"_header": header, **payload}
    with _writing(path) as fh:
        fh.write(canonical_json(body) + "\n")


_TOKEN = 17              # bytes of the longest token, "-d.ddddddddde-ddd"
_TIE_MARGIN = 2.0 ** -14


def write_matrix(path: Path, array: np.ndarray, config_digest: str) -> None:
    """Delimited-text matrix of complex entries as re+imj tokens.

    Row i holds ``array[i]``: tab-separated ``%.9e%+.9ej`` tokens, LF line
    ends, the bytes of Python's ``%`` formatting. Each part is formatted in
    one array pass: with e the decade of |x|, y = |x|*10**(9-e) lies in
    [1e9, 1e10) and rounds to the token's 10 digits (a carry to 1e10 moves to
    the next decade). The power of ten is the correctly rounded double, exact
    up to 10**22, so y carries one rounding when |9-e| <= 22 and is within
    about 2**-18 of the exact product otherwise. An element goes to ``%``
    itself when its rounding or decade is not certain: the fractional part
    of y is within 2**-14 of 1/2 (every exact tie among them), y lies
    outside [1e9, 1e10) (log10 gave a decade one off), or |x| is neither zero
    nor in [1e-299, 1e300) (subnormal, huge, inf or nan).
    """
    array = np.asarray(array)
    n_rows, n_cols = array.shape
    cells = np.zeros((n_rows, n_cols, 2 * _TOKEN + 2), np.uint8)
    cells[..., :_TOKEN] = _e_tokens(array.real, "%.9e")
    cells[..., _TOKEN:2 * _TOKEN] = _e_tokens(array.imag, "%+.9e")
    cells[..., -2] = ord("j")
    cells[..., -1] = ord("\t")
    # each row's last tab becomes its LF; a row of no columns is a bare LF
    lines = np.concatenate([cells.reshape(n_rows, n_cols * cells.shape[-1])[:, :-1],
                            np.full((n_rows, 1), ord("\n"), np.uint8)], axis=1)
    with _writing(path) as fh:
        fh.write(header_line(config_digest) + "\n")
        fh.write(lines[lines != 0].tobytes().decode("ascii"))


def _e_tokens(part, fmt: str) -> np.ndarray:
    """``fmt % x`` (``"%.9e"`` or ``"%+.9e"``) of every element of ``part``,
    as a row of ``_TOKEN`` bytes with zero bytes where the sign or a third
    exponent digit is absent; ``write_matrix`` gives the rounding."""
    x = np.asarray(part, np.float64)
    a = np.abs(x)
    zero = a == 0
    in_range = (a >= 1e-299) & (a < 1e300)
    a = np.where(in_range, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    pow10 = np.array([float(10 ** n) for n in range(309)])[np.minimum(np.abs(9 - e), 308)]
    with np.errstate(over="ignore", under="ignore"):   # the branch np.where discards
        y = np.where(e <= 9, a * pow10, a / pow10)
    fast = (in_range | zero) & (y >= 1e9) & (y < 1e10) & (np.abs(y - np.floor(y) - 0.5) > _TIE_MARGIN)
    m = np.where(zero, 0, np.rint(y)).astype(np.int64)   # e is 0 there, as a is 1
    carry = m == 10 ** 10
    m[carry] = 10 ** 9
    e += carry

    tokens = np.zeros(x.shape + (_TOKEN,), np.uint8)
    tokens[..., 0] = np.where(np.signbit(x), ord("-"), ord("+") if fmt == "%+.9e" else 0)
    tokens[..., 2] = ord(".")
    tokens[..., 12] = ord("e")
    tokens[..., 13] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    # decimal digits, last first: the mantissa's ten, the exponent's three
    for n, cols in ((m, (11, 10, 9, 8, 7, 6, 5, 4, 3, 1)), (e, (16, 15, 14))):
        for col in cols:
            tens = n // 10
            tokens[..., col] = ord("0") + n - 10 * tens
            n = tens
    tokens[..., 14] = np.where(e >= 100, tokens[..., 14], 0)

    flat = tokens.reshape(-1, _TOKEN)
    for i in np.flatnonzero(~fast):
        text = (fmt % float(x.flat[i])).encode("ascii")
        flat[i] = 0
        flat[i, :len(text)] = np.frombuffer(text, np.uint8)
    return tokens


def export_grid(grid, out: OutputDir, prefix: str, config_digest: str) -> list[str]:
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


def export_mode_fields(mode, out: OutputDir, prefix: str, config_digest: str) -> list[str]:
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


def export_pulse_trace(trace, out: OutputDir, config_digest: str) -> list[str]:
    """PulseTrace as CSV (t_ns, v_norm)."""
    csv_file = out.path("pulse_trace.csv")
    write_csv(csv_file, ["t_ns", "v_norm"], zip(trace.time_s * 1e9, trace.voltage), config_digest)
    return [csv_file.name]


def export_count_record(record, out: OutputDir, prefix: str, config_digest: str) -> list[str]:
    """CountRecord as CSV (timestamp_s, flag) + JSON metadata header file."""
    csv_file = out.path(f"{prefix}.csv")
    write_csv(
        csv_file, ["timestamp_s", "flag"],
        zip(map(float, record.timestamps_s),
            map(_FLAG_NAMES.__getitem__, record.photon.tolist())),
        config_digest,
    )
    meta = out.path(f"{prefix}_meta.json")
    write_json(meta, {
        "events": len(record),
        "dead_time_s": record.dead_time_s,
        **record.metadata,
    }, config_digest)
    return [csv_file.name, meta.name]
