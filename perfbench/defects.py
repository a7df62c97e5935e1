"""Known defects of `waring` that pencil-stream keeps out of its stream.

Every run reproduces each defect on a fixed input, outside the timed region,
and prints whether it still shows, so that the redraws in
`wl_pencil_stream.inputs` never hide it.  Once a defect reads "fixed", the
matching bound in `in_defect_region` can go.
"""

from __future__ import annotations


def render_parse_exponent(api) -> str | None:
    """`render_quantic` prints 1.5e-05*x1^3 and `parse_quantic` splits it at the '-'."""
    qu = api.quantics
    form = qu.Quantic(3, 2, {(3, 0): 1.5e-05, (0, 3): 1.0})
    text = qu.render_quantic(form)
    try:
        back = qu.parse_quantic(text)
    except Exception as exc:
        return f"{text!r}: {type(exc).__name__}: {exc}"
    if back.terms != form.terms:
        return f"{text!r} parses back as {back.terms}"
    return None


def pencil_near_linear(api) -> str | None:
    """A real cubic with pencil a = 4e-6 against b = 0.7 gets a rank_2 result `verify` rejects."""
    tc, dc = api.tensor_core, api.decompose
    tensor = tc.SymmetricTensor(3, 2, {(3, 0): 0.3, (2, 1): 1.0, (1, 2): 1.0, (0, 3): 1.0 + 4e-6})
    try:
        result = dc.decompose_sym222_pencil(tensor, "R")
        verdict = dc.verify(result.decomposition, tensor)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if not verdict.ok:
        return f"{result.classification} rejected by verify, residual {verdict.residual:.3g}"
    return None


DEFECTS = {f.__name__: f for f in (render_parse_exponent, pencil_near_linear)}


def reproduce(api) -> dict[str, str | None]:
    """What each known defect does today; None means it no longer shows."""
    return {name: f(api) for name, f in DEFECTS.items()}
