"""Tate's algorithm at every bad prime, and the rank-one prime set T.

Run:  python3 demos/02_local_reduction.py
"""

from shaclass import CurveModel, bad_primes, compute_t_set, local_data

EXAMPLES = {
    "11a1 (split I5)": CurveModel(0, -1, 1, -10, -20),
    "15a1 (I4 at 3 and 5)": CurveModel(1, 1, 1, -10, -10),
    "36a1 (additive at 2, 3)": CurveModel(0, 0, 0, 0, 1),
    "1058d1": CurveModel(1, -1, 0, -332311, -73733731),
    "423801ci1": CurveModel(0, 0, 1, -17034726259173, -27061436852750306309),
}

for name, model in EXAMPLES.items():
    print(name)
    for q, d in local_data(model).items():
        print(
            f"  v = {q:3d}: {d.kodaira:5s} {d.reduction_class:32s} "
            f"c_v = {d.c_v}  v(disc) = {d.val_delta_min}  f = {d.conductor_exponent}"
        )
    print()

# Synthetic families make every Kodaira type to order: y^2 = x^3 + 7^k
# walks through II, IV, IV*, II* as k = 1, 2, 4, 5.
print("the y^2 = x^3 + 7^k family at v = 7:")
for k in (1, 2, 4, 5):
    d = local_data(CurveModel(0, 0, 0, 0, 7**k), 7)
    print(f"  k = {k}: {d.kodaira}, c = {d.c_v}")

# The set T feeding the upper bound: multiplicative primes v with
# p not dividing v(disc).  For 1058d1 at p = 5 the multiplicative prime 2
# has v(disc) = 7, so T = {2}; for 423801ci1 every bad prime is additive
# and p = 5 >= 5, so T is empty.
print()
for name in ("1058d1", "423801ci1"):
    print(f"T({name}, p=5) = {sorted(compute_t_set(EXAMPLES[name], 5))}")

# p = 3 adds additive primes: at every v != 3, v = 2 included, an additive
# v enters exactly for Kodaira types IV and IV*, whose Neron component
# group has order 3.  36a1 is IV at 2 (and bad at p = 3 itself, which T
# never contains), so T(36a1, p = 3) = [2].
t3 = compute_t_set(EXAMPLES["36a1 (additive at 2, 3)"], 3)
print("T(36a1, p=3) =", sorted(t3), "(IV at 2)")
t3 = compute_t_set(CurveModel(0, 0, 0, 0, 49), 3)  # IV at 2 and at 7
print("T(y^2 = x^3 + 49, p=3) =", sorted(t3), "(IV at 2 and at 7)")
print("bad primes of that curve:", bad_primes(CurveModel(0, 0, 0, 0, 49)))
