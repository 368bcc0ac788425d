"""Clauses (ii) and (vii) of ``dualbench.algebra.check_lvl_axioms`` as they
were before they ran over the supports of the T-operators only, kept as the
oracles of those loops: every (L1, L2, a, b) for clause (ii), nt^2 * n^2
entries, and every (a, b, l) for clause (vii), nt * n^2."""

from dualbench.algebra import characteristic_tables
from dualbench.lattice import heyting_table
from dualbench.reporting import PASS, failed


def clause_ii(algebra):
    lat, truth = algebra.lattice, algebra.truth
    n, nt = len(algebra), len(truth)
    t, imp, meet, join, leq = algebra.t_ops, algebra.implies, lat.meet, lat.join, lat.leq
    hey_t = heyting_table(truth)
    t_truth = characteristic_tables(truth)
    en, tn = algebra.element_name, lambda l: truth.elements[l]
    for l1 in range(nt):
        for l2 in range(nt):
            for x in range(n):
                for y in range(n):
                    lhs = meet[t[l1][x]][t[l2][y]]
                    rhs = meet[
                        meet[t[hey_t[l1][l2]][imp[x][y]]][t[truth.meet[l1][l2]][meet[x][y]]]
                    ][t[truth.join[l1][l2]][join[x][y]]]
                    if not leq[lhs][rhs]:
                        return failed(
                            "T_L1(a)^T_L2(b) <= T(L1->L2)(a->b)^... fails at "
                            f"L1={tn(l1)}, L2={tn(l2)}, a={en(x)}, b={en(y)}"
                        )
    for l1 in range(nt):
        for l2 in range(nt):
            for x in range(n):
                if not leq[t[l2][x]][t[t_truth[l1][l2]][t[l1][x]]]:
                    return failed(
                        "T_L2(a) <= T_(T_L1(L2))(T_L1(a)) fails at "
                        f"L1={tn(l1)}, L2={tn(l2)}, a={en(x)}"
                    )
    return PASS


def clause_vii(algebra):
    """Clause (vii) as it was before its fold ran over the supports of the
    T-operators only: for every (a, b) the meet of T_l(a) <-> T_l(b) over
    all l, nt * n^2 biimplications."""
    lat, truth = algebra.lattice, algebra.truth
    n, nt = len(algebra), len(truth)
    t, imp, meet, leq = algebra.t_ops, algebra.implies, lat.meet, lat.leq
    en = algebra.element_name

    def biimp(x, y):
        return meet[imp[x][y]][imp[y][x]]

    for x in range(n):
        for y in range(n):
            lhs = lat.top
            for l in range(nt):
                lhs = meet[lhs][biimp(t[l][x], t[l][y])]
            if not leq[lhs][biimp(x, y)]:
                return failed(
                    f"meet of T-biimplications not below a<->b at a={en(x)}, b={en(y)}"
                )
    return PASS
