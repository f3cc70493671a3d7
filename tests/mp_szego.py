"""A 40-digit propagation of the Szegő recurrence, the tests' reference.

It steps the pair (eta, eta*) site by site in mpmath through
A(alpha_j, z) / rho_j, eta <- (z eta - conj(alpha_j) eta*) / rho_j and
eta* <- (eta* - alpha_j z eta) / rho_j, and shares no code with
`cmvkit.transfer`.
"""

import mpmath as mp

DPS = 40


def norm_profile(seq, z, initial, n):
    """S[0], ..., S[n] with S[j] = sum_{i<=j} (|eta_i|^2 + |eta*_i|^2) / 2
    for the pair started at `initial`, as DPS-digit mpf values.  Arithmetic
    on them keeps their digits only under mp.workdps(DPS)."""
    with mp.workdps(DPS):
        zz, (u, v) = mp.mpc(z), (mp.mpc(initial[0]), mp.mpc(initial[1]))
        S = (abs(u) ** 2 + abs(v) ** 2) / 2
        profile = [S]
        for a in seq.alpha_array(0, n).tolist():
            a = mp.mpc(a)
            rho = mp.sqrt(1 - abs(a) ** 2)
            u, v = (zz * u - mp.conj(a) * v) / rho, (-a * zz * u + v) / rho
            S += (abs(u) ** 2 + abs(v) ** 2) / 2
            profile.append(S)
    return profile
