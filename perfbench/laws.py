"""Independent evaluation of the identities the benchmark's failing inputs break.

The benchmark expects `fail` from lieyam on every mutated input.  That
expectation is confirmed here, before any timing, by evaluating the broken
identity directly on the generated JSON files with exact numpy object-dtype
contractions.  Nothing here calls lieyam's own law code: structure
constants, the adjoint/coadjoint/zero representations and the derived
operator D are rebuilt from the file contents.

Conventions follow the file formats: b[i, j, k] is the coefficient of e_k
in [e_i, e_j]; t[i, j, k, l] that of e_l in <<e_i, e_j, e_k>>; a matrix acts
on coordinate columns; rho[i] = rho(e_i) and mu[i, j] = mu(e_i, e_j).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _q(text) -> Fraction:
    return Fraction(text)


def _zeros(*shape):
    return np.full(shape, Fraction(0), dtype=object)


def algebra_tensors(data):
    """(b, t) from an algebra object of the file format, antisymmetrized."""
    n = int(data["dim"])
    b, t = _zeros(n, n, n), _zeros(n, n, n, n)
    for e in data.get("binary", []):
        for k, v in e["value"].items():
            b[e["i"], e["j"], int(k)] = _q(v)
            b[e["j"], e["i"], int(k)] = -_q(v)
    for e in data.get("ternary", []):
        for l, v in e["value"].items():
            t[e["i"], e["j"], e["k"], int(l)] = _q(v)
            t[e["j"], e["i"], e["k"], int(l)] = -_q(v)
    return b, t


def pair_tensors(data):
    """(b, t, rho, mu) from a pair file object with an inline algebra."""
    b, t = algebra_tensors(data["algebra"])
    n = b.shape[0]
    special = data["special"]
    if special == "zero":
        m = int(data["module_dim"])
        return b, t, _zeros(n, m, m), _zeros(n, n, m, m)
    rho = np.einsum("ikl->ilk", b)           # rho(e_i) e_k = [e_i, e_k]
    mu = np.einsum("kijl->ijlk", t)          # mu(e_i, e_j) e_k = <<e_k, e_i, e_j>>
    if special == "coadjoint":
        rho = -np.einsum("ilk->ikl", rho)    # rho'(x) = -rho(x)^T
        mu = np.einsum("jilk->ijkl", mu)     # mu'(x, y) = mu(y, x)^T
    elif special != "adjoint":
        raise ValueError(f"unsupported representation {special!r}")
    return b, t, rho, mu


def operator(data):
    rows, cols = int(data["rows"]), int(data["cols"])
    return np.array([_q(x) for x in data["entries"]], dtype=object).reshape(rows, cols)


def _nonzero(*arrays) -> bool:
    return any(any(x != 0 for x in a.flat) for a in arrays)


def _derived(b, rho, mu):
    """D[i, j] = mu(e_j, e_i) - mu(e_i, e_j) + [rho_i, rho_j] - rho([e_i, e_j])."""
    rr = np.einsum("iab,jbc->ijac", rho, rho)
    return (np.einsum("jiac->ijac", mu) - mu + rr - np.einsum("jiac->ijac", rr)
            - np.einsum("ijk,kac->ijac", b, rho))


def axioms_broken(b, t) -> bool:
    """Some Lie-Yamaguti axiom LY1-LY4 has a nonzero residual."""
    bb = np.einsum("ijm,mkl->ijkl", b, b)                       # [[i,j],k]
    cyc = lambda a: a + np.einsum("jkil->ijkl", a) + np.einsum("kijl->ijkl", a)  # noqa: E731
    ly1 = cyc(bb) + cyc(t)
    tb = np.einsum("ijm,mkwl->ijkwl", b, t)                     # <<[i,j],k,w>>
    ly2 = tb + np.einsum("jkiwl->ijkwl", tb) + np.einsum("kijwl->ijkwl", tb)
    ly3 = (np.einsum("kwm,ijml->ijkwl", b, t)                   # <<i,j,[k,w]>>
           - np.einsum("ijkm,mwl->ijkwl", t, b)                 # [<<i,j,k>>,w]
           - np.einsum("ijwm,kml->ijkwl", t, b))                # [k,<<i,j,w>>]
    ly4 = (np.einsum("kwsm,ijml->ijkwsl", t, t)
           - np.einsum("ijkm,mwsl->ijkwsl", t, t)
           - np.einsum("ijwm,kmsl->ijkwsl", t, t)
           - np.einsum("ijsm,kwml->ijkwsl", t, t))
    return _nonzero(ly1, ly2, ly3, ly4)


def rb_broken(b, t, rho, mu, tmap) -> bool:
    """T: V -> g breaks a relative Rota-Baxter identity."""
    d = _derived(b, rho, mu)
    lhs2 = np.einsum("iu,jv,ijk->uvk", tmap, tmap, b)
    a = np.einsum("iu,ilv->uvl", tmap, rho)                      # rho(Tu) v
    rhs2 = np.einsum("kl,uvl->uvk", tmap, a - np.einsum("vul->uvl", a))
    lhs3 = np.einsum("iu,jv,kw,ijkl->uvwl", tmap, tmap, tmap, t)
    inner = _subadjacent_ternary(tmap, d, mu)
    rhs3 = np.einsum("kl,uvwl->uvwk", tmap, inner)
    return _nonzero(lhs2 - rhs2, lhs3 - rhs3)


def _subadjacent_ternary(tmap, d, mu):
    """<<u,v,w>>^T = D(Tu,Tv)w + mu(Tv,Tw)u - mu(Tu,Tw)v, indexed [u, v, w, l]."""
    dt = np.einsum("iu,jv,ijlw->uvwl", tmap, tmap, d)
    mt = np.einsum("iv,jw,ijlu->uvwl", tmap, tmap, mu)           # mu(Tv,Tw) u
    return dt + mt - np.einsum("vuwl->uvwl", mt)


def nijenhuis_broken(b, t, nmap) -> bool:
    """N breaks N[x,y]_N = [Nx,Ny] or N<<x,y,z>>_N = <<Nx,Ny,Nz>>."""
    nb = np.einsum("ai,ajk->ijk", nmap, b)                       # [Nx, y]
    bn = np.einsum("aj,iak->ijk", nmap, b)                       # [x, Ny]
    deformed2 = nb + bn - np.einsum("ka,ija->ijk", nmap, b)
    binary = (np.einsum("ka,ija->ijk", nmap, deformed2)
              - np.einsum("ai,bj,abk->ijk", nmap, nmap, b))
    n1 = np.einsum("ai,ajkl->ijkl", nmap, t)
    n2 = np.einsum("aj,iakl->ijkl", nmap, t)
    n3 = np.einsum("ak,ijal->ijkl", nmap, t)
    phi1 = n1 + n2 + n3 - np.einsum("la,ijka->ijkl", nmap, t)
    nn12 = np.einsum("ai,bj,abkl->ijkl", nmap, nmap, t)
    nn23 = np.einsum("aj,bk,iabl->ijkl", nmap, nmap, t)
    nn13 = np.einsum("ai,bk,ajbl->ijkl", nmap, nmap, t)
    phi2 = nn12 + nn23 + nn13 - np.einsum("la,ijka->ijkl", nmap, phi1)
    ternary = (np.einsum("la,ijka->ijkl", nmap, phi2)
               - np.einsum("ai,bj,ck,abcl->ijkl", nmap, nmap, nmap, t))
    return _nonzero(binary, ternary)


def structure_broken(b, t, rho, mu, nmap, smap) -> bool:
    """(N, S) is not a Nijenhuis structure: N is not Nijenhuis, or the rho- or
    mu-compatibility of the trivial deformation fails."""
    if nijenhuis_broken(b, t, nmap):
        return True
    mul = lambda x, y: np.einsum("...ab,...bc->...ac", x, y)  # noqa: E731
    rho_n = np.einsum("ax,alm->xlm", nmap, rho)                  # rho(N e_x)
    rho_res = mul(rho_n, smap) - mul(smap, rho_n + mul(rho, smap) - mul(smap, rho))
    mu_nx = np.einsum("ax,aylm->xylm", nmap, mu)                 # mu(N e_x, e_y)
    mu_xn = np.einsum("ay,xalm->xylm", nmap, mu)                 # mu(e_x, N e_y)
    mu_nn = np.einsum("ax,by,ablm->xylm", nmap, nmap, mu)
    varpi1 = mu_nx + mu_xn + mul(mu, smap) - mul(smap, mu)
    varpi2 = mul(mu_nx, smap) + mul(mu_xn, smap) + mu_nn - mul(smap, varpi1)
    return _nonzero(rho_res, mul(mu_nn, smap) - mul(smap, varpi2))


def form_broken(b, t, form) -> bool:
    """B([x,y],z) = -B(y,[x,z]) or B(<<x,y,z>>,w) = B(x,<<w,z,y>>) fails."""
    binary = np.einsum("ijl,lk->ijk", b, form) + np.einsum("jl,ikl->ijk", form, b)
    ternary = (np.einsum("ijkl,lw->ijkw", t, form)
               - np.einsum("il,wkjl->ijkw", form, t))
    return _nonzero(binary, ternary)
