"""Shared test utilities kept independent of the code under test."""


def bareiss_det(rows) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def brute_floor_root(m: int, n: int) -> int:
    """Exhaustive floor(m**(1/n)): walk r upward until (r+1)**n exceeds m."""
    r = 0
    while (r + 1) ** n <= m:
        r += 1
    return r
