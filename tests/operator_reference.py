"""Reference assembly of the full-vector FD operator, every coupling written
out: the 10 Hx->Hx and Hx->Hy formulas and, separately, the 10 Hy->Hy and
Hy->Hx formulas (Fallahkhair, Li & Murphy, J. Lightwave Technol. 26, 1423
(2008)). Every coupling is stored, zeros included.
``snspdkit.modes.assemble_operator`` states the stencil once and must give
this matrix's nonzero entries bit for bit, storing no zero."""

import numpy as np
import scipy.sparse as sp


def reference_matrix(grid) -> sp.csc_matrix:
    x = np.asarray(grid.x_edges_m, dtype=float)
    y = np.asarray(grid.y_edges_m, dtype=float)
    nnx, nny = len(x), len(y)
    k0 = 2.0 * np.pi / grid.wavelength_m

    epsp = np.pad(np.conj(grid.eps), 1, mode="edge")
    # quadrant cells around each node: 1=NW, 2=SW, 3=SE, 4=NE
    e1 = epsp[0:nnx, 1:nny + 1]
    e2 = epsp[0:nnx, 0:nny]
    e3 = epsp[1:nnx + 1, 0:nny]
    e4 = epsp[1:nnx + 1, 1:nny + 1]

    dx = np.diff(x)
    dy = np.diff(y)
    dxp = np.concatenate(([dx[0]], dx, [dx[-1]]))
    dyp = np.concatenate(([dy[0]], dy, [dy[-1]]))
    w = dxp[0:nnx][:, None]
    e = dxp[1:nnx + 1][:, None]
    s = dyp[0:nny][None, :]
    n = dyp[1:nny + 1][None, :]

    ns21 = n * e2 + s * e1
    ns34 = n * e3 + s * e4
    ew14 = e * e1 + w * e4
    ew23 = e * e2 + w * e3

    k2 = k0 * k0

    axxn = 2.0 * (e * e3 / ns34 + w * e2 / ns21) / (n * (e + w))
    axxs = 2.0 * (e * e4 / ns34 + w * e1 / ns21) / (s * (e + w))
    axxe = 2.0 / (e * (e + w))
    axxw = 2.0 / (w * (e + w))
    axxp = -axxn - axxs - axxe - axxw + k2 * (n + s) * (
        e4 * e3 * e / ns34 + e1 * e2 * w / ns21
    ) / (e + w)

    ayye = 2.0 * (n * e1 / ew14 + s * e2 / ew23) / (e * (n + s))
    ayyw = 2.0 * (n * e4 / ew14 + s * e3 / ew23) / (w * (n + s))
    ayyn = 2.0 / (n * (n + s))
    ayys = 2.0 / (s * (n + s))
    ayyp = -ayyn - ayys - ayye - ayyw + k2 * (e + w) * (
        e1 * e4 * n / ew14 + e2 * e3 * s / ew23
    ) / (n + s)

    cross = e2 * e4 - e1 * e3
    axyn = (e3 / ns34 - e2 / ns21 + s * cross / (ns21 * ns34)) / (e + w)
    axys = (e1 / ns21 - e4 / ns34 + n * cross / (ns21 * ns34)) / (e + w)
    axye = -2.0 * (e2 - e1) * w * w / (ns21 * e * (e + w) ** 2)
    axyw = -2.0 * (e4 - e3) * e * e / (ns34 * w * (e + w) ** 2)
    axyp = -(axyn + axys + axye + axyw)

    ayxe = (e1 / ew14 - e2 / ew23 + w * cross / (ew23 * ew14)) / (n + s)
    ayxw = (e3 / ew23 - e4 / ew14 + e * cross / (ew23 * ew14)) / (n + s)
    ayxn = -2.0 * (e2 - e3) * s * s / (ew23 * n * (n + s) ** 2)
    ayxs = -2.0 * (e4 - e1) * n * n / (ew14 * s * (n + s) ** 2)
    ayxp = -(ayxn + ayxs + ayxe + ayxw)

    nn = nnx * nny
    ii = np.arange(nn).reshape(nnx, nny)
    whole, head, tail = slice(None), slice(None, -1), slice(1, None)
    # row-node and column-node slices of the self, N, S, E and W couplings
    links = [((whole, whole), (whole, whole)), ((whole, head), (whole, tail)),
             ((whole, tail), (whole, head)), ((head, whole), (tail, whole)),
             ((tail, whole), (head, whole))]
    blocks = [
        (0, 0, (axxp, axxn, axxs, axxe, axxw)),
        (0, nn, (axyp, axyn, axys, axye, axyw)),
        (nn, 0, (ayxp, ayxn, ayxs, ayxe, ayxw)),
        (nn, nn, (ayyp, ayyn, ayys, ayye, ayyw)),
    ]
    rows, cols, vals = [], [], []
    for row_off, col_off, coeffs in blocks:
        for (r, c), a in zip(links, coeffs):
            rows.append(ii[r].ravel() + row_off)
            cols.append(ii[c].ravel() + col_off)
            vals.append(np.broadcast_to(a, ii.shape)[r].ravel())
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    return sp.coo_matrix((vals, (rows, cols)), shape=(2 * nn, 2 * nn)).tocsc()
