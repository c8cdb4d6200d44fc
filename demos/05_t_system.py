"""The boxed three-term identity between interval minors.

Tropically the identity i[a+,b] + i[a,b-] = i[a,b] + i[a+,b-] holds for
every i-box, with the lower product strictly smaller in the bi-lex order
whenever comparable.  In the exact torus the identity is realized by a
single exchange step when the box is right-anchored and the exchange
monomials match the boxed terms; other boxes raise MinorNotReachable
rather than pretending.
"""
from braidseed.cartan import preset
from braidseed.errors import MinorNotReachable
from braidseed.seeds import tsystem_check, tsystem_sweep
from braidseed.words import IBox, Word, WordKind

cd = preset("a2")
w = Word((1, 2, 1, 2, 1), WordKind.POSITIVE_BRAID)
print(f"tropical sweep over {w.letters}:")
for a in range(1, w.length + 1):
    for b in range(a, w.length + 1):
        if w.letter(a) != w.letter(b):
            continue
        r = tsystem_check(cd, w, IBox(a, b))
        if r.degenerate:
            print(f"  [{a},{b}] degenerate")
            continue
        print(
            f"  [{a},{b}] {r.left_sum} == {r.right_sum}: {r.identity_holds}, "
            f"lower {r.lower_sum} is {r.lower_verdict.name}"
        )
checked, degenerate, failures = tsystem_sweep(cd, w)
print(f"tsystem_sweep: {checked} boxes, {degenerate} degenerate, failures {failures}")

print()
print("exact mode on the braid word (1,2,1,2):")
braid = Word((1, 2, 1, 2), WordKind.POSITIVE_BRAID)
r = tsystem_check(cd, braid, IBox(2, 4), exact=True)
print(
    f"  [2,4]: identity {r.identity_holds}, exchange verified {r.exact_verified}, "
    f"q-powers ({r.a_doubled}/2, {r.b_doubled}/2)"
)
try:
    tsystem_check(cd, braid, IBox(1, 3), exact=True)
except MinorNotReachable as err:
    print(f"  [1,3]: MinorNotReachable ({err})")
