"""Helpers of the verification battery not reached through the CLI tests."""
from wderiv.verify import lambda_values


def ref_lambda_values(kappa, samples):
    """The pool-then-odd-numbers loop that lambda_values replaced."""
    pool = [kappa + 1, 0, 7, 11, 13, -3, 17, 19, 23, -5]
    out = []
    for lam in pool:
        if lam not in out:
            out.append(lam)
        if len(out) == samples:
            return out
    base = 29
    while len(out) < samples:
        if base not in out:
            out.append(base)
        base += 2
    return out


def test_lambda_values_match_the_reference_loop():
    for kappa in range(80):
        for samples in range(1, 60):
            assert lambda_values(kappa, samples) == ref_lambda_values(kappa, samples), (
                kappa, samples)
