"""The built-in natives written in the payoff DSL, kept as test-only twins:
the property tests check that each DSL body agrees with its native. They are
plain lists, so they serialize to JSON unchanged."""

DSL_PRED = ["primrec", "zero", ["proj", 1]]
# subrev(y, x) = x - y truncated (recursion on the first argument)
DSL_SUBREV = ["primrec", ["proj", 1], ["compose", DSL_PRED, [["proj", 2]]]]
DSL_TRUNCSUB = ["compose", DSL_SUBREV, [["proj", 2], ["proj", 1]]]
DSL_ADD = ["primrec", ["proj", 1], ["compose", "succ", [["proj", 2]]]]
# recursion on x, and the step adds y to the accumulator by recursion on the
# accumulator: about x * x * y / 2 iterations
DSL_MULT = ["primrec", "zero", ["compose", DSL_ADD, [["proj", 2], ["proj", 3]]]]
# sign(n) = 0 for 0, else 1
DSL_SIGN = ["primrec", "zero", ["compose", "succ", ["zero"]]]
DSL_ONE2 = ["compose", "succ", ["zero"]]
# pick_nonzero(x, y) = x if x > 0 else y, written x + (1 - x) * y
DSL_PICK = ["compose", DSL_ADD, [
    ["proj", 1],
    ["compose", DSL_MULT, [
        ["compose", DSL_TRUNCSUB, [DSL_ONE2, ["proj", 1]]],
        ["proj", 2],
    ]],
]]
DSL_LEQ01 = ["compose", DSL_SIGN, [["compose", DSL_TRUNCSUB, [["proj", 1], ["proj", 2]]]]]

# phi4 payoff: 0 iff x1 = y1 or pick(x1,x2) > pick(y1,y2), on (x1, x2, y1, y2)
_P1, _P2, _P3, _P4 = (["proj", i] for i in (1, 2, 3, 4))
_G_X = ["compose", DSL_PICK, [_P1, _P2]]
_G_Y = ["compose", DSL_PICK, [_P3, _P4]]
_GT = ["compose", DSL_SIGN, [["compose", DSL_TRUNCSUB, [_G_X, _G_Y]]]]
_EQ01 = ["compose", DSL_TRUNCSUB, [
    DSL_ONE2,
    ["compose", DSL_ADD, [
        ["compose", DSL_SIGN, [["compose", DSL_TRUNCSUB, [_P1, _P3]]]],
        ["compose", DSL_SIGN, [["compose", DSL_TRUNCSUB, [_P3, _P1]]]],
    ]],
]]
DSL_PHI4 = ["compose", DSL_TRUNCSUB, [
    ["compose", "succ", ["zero"]],
    ["compose", DSL_ADD, [_EQ01, _GT]],
]]

# each native's DSL twin, by the native's name
TWINS = {"leq01": DSL_LEQ01, "add": DSL_ADD, "truncsub": DSL_TRUNCSUB,
         "mult": DSL_MULT, "pick_nonzero": DSL_PICK, "phi4f": DSL_PHI4}
