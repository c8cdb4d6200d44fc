"""A quantum seed from a word, and one mutation in full detail.

The word (1,2,1) over a2 yields a 3x3 exchange matrix with one exchange
index, a skew form Lambda solved to be compatible with it, tropical
leading-exponent vectors for the interval minors, and exact quantum torus
forms for the cluster variables.  Mutating at the exchange index rewrites
all four layers at once, and the exchange relation can be checked in the
torus with explicit q-powers.
"""
from braidseed.cartan import preset
from braidseed.seeds import (
    exchange_check,
    exchange_vectors,
    initial_seed,
    mutate_seed,
    seed_to_json,
)
from braidseed.words import Word, WordKind

cd = preset("a2")
seed = initial_seed(cd, Word((1, 2, 1), WordKind.WEYL_REDUCED), exact=True)

print("initial seed for (1,2,1):")
print(f"  labels   {list(seed.labels)}")
print(f"  exchange {list(seed.b.exchange)}")
for row in seed.b.entries:
    print(f"  B {list(row)}")
for row in seed.lam:
    print(f"  L {list(row)}")
print(f"  tropical {[list(v) for v in seed.trop]}")

k = seed.b.exchange[0]
up, down = exchange_vectors(seed.b, k)
print(f"\nexchange vectors at {k}: up {up}, down {down}")

mutated = mutate_seed(seed, k)
check = exchange_check(seed, k, mutated)
print(
    f"exchange relation X_{k} mu_{k}(X_{k}) = "
    f"q^({check.alpha_doubled}/2) M1 + q^({check.beta_doubled}/2) M2: "
    f"verified {check.verified}"
)

print("\nafter mutation:")
print(f"  labels   {list(mutated.labels)}")
for row in mutated.b.entries:
    print(f"  B {list(row)}")
print(f"  tropical {[list(v) for v in mutated.trop]}")
new_var = mutated.exact[k - 1]
print(f"  new variable exponents {sorted(new_var.terms)}")

back = mutate_seed(mutated, k)
print(f"\nmutation is an involution: {seed_to_json(back)['B'] == seed_to_json(seed)['B']}")
