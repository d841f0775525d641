//! Cover calculus: tautology, containment and complement via the
//! unate-recursive paradigm (the machinery espresso builds on).
//!
//! These operations power the two-level minimizer in [`crate::minimize`] and
//! the dual (negated-circuit) optimization of the paper's Table I/II: the
//! negation of a circuit is obtained by complementing each output's cover.

use crate::cover::Cover;
use crate::cube::{Cube, Phase, VarState};

/// Maximum recursion depth guard (depth is bounded by the variable count, so
/// this only trips on internal errors).
const MAX_DEPTH: usize = 4096;

/// Whether a single-output cover is a tautology (evaluates to 1 on every
/// assignment).
///
/// Uses unate reduction + Shannon expansion on the most binate variable.
///
/// # Examples
///
/// ```
/// use xbar_logic::{Cover, cube, is_tautology};
///
/// let taut = Cover::from_cubes(2, 1, [cube("1- 1"), cube("0- 1")])?;
/// assert!(is_tautology(&taut));
/// let not = Cover::from_cubes(2, 1, [cube("1- 1")])?;
/// assert!(!is_tautology(&not));
/// # Ok::<(), xbar_logic::LogicError>(())
/// ```
#[must_use]
pub fn is_tautology(cover: &Cover) -> bool {
    let cubes: Vec<Cube> = cover.iter().cloned().collect();
    tautology_rec(&cubes, cover.num_inputs(), 0)
}

fn tautology_rec(cubes: &[Cube], num_inputs: usize, depth: usize) -> bool {
    assert!(depth < MAX_DEPTH, "tautology recursion too deep");
    if cubes.iter().any(Cube::is_input_universe) {
        return true;
    }
    if cubes.is_empty() {
        return false;
    }
    // Minterm-count upper bound: if the cubes cannot possibly cover the
    // space even when disjoint, the cover is not a tautology.
    let mut count: u128 = 0;
    let space = 1u128 << num_inputs.min(127);
    for cube in cubes {
        count = count.saturating_add(cube.input_minterm_count());
        if count >= space {
            break;
        }
    }
    if count < space {
        return false;
    }
    match select_binate_variable(cubes, num_inputs) {
        Some(var) => {
            let pos = cofactor_cubes(cubes, var, Phase::Positive);
            if !tautology_rec(&pos, num_inputs, depth + 1) {
                return false;
            }
            let neg = cofactor_cubes(cubes, var, Phase::Negative);
            tautology_rec(&neg, num_inputs, depth + 1)
        }
        None => {
            // Unate cover: tautology iff it contains the universal cube,
            // which was already checked above.
            false
        }
    }
}

/// Cofactors every cube by `var = phase`, dropping incompatible cubes.
fn cofactor_cubes(cubes: &[Cube], var: usize, phase: Phase) -> Vec<Cube> {
    cubes
        .iter()
        .filter_map(|c| c.cofactor_literal(var, phase))
        .collect()
}

/// Picks the "most binate" variable: the one appearing in both phases across
/// the most cubes (ties broken by total occurrence count). Returns `None`
/// when the cover is unate (no variable appears in both phases).
fn select_binate_variable(cubes: &[Cube], num_inputs: usize) -> Option<usize> {
    let mut pos = vec![0usize; num_inputs];
    let mut neg = vec![0usize; num_inputs];
    for cube in cubes {
        for (var, phase) in cube.literals() {
            match phase {
                Phase::Positive => pos[var] += 1,
                Phase::Negative => neg[var] += 1,
            }
        }
    }
    let mut best: Option<(usize, usize, usize)> = None; // (min(pos,neg), total, var)
    for var in 0..num_inputs {
        if pos[var] > 0 && neg[var] > 0 {
            let key = (pos[var].min(neg[var]), pos[var] + neg[var]);
            match best {
                Some((m, t, _)) if (key.0, key.1) <= (m, t) => {}
                _ => best = Some((key.0, key.1, var)),
            }
        }
    }
    best.map(|(_, _, var)| var)
}

/// Picks any variable with a literal (used when the cover is unate but we
/// still need to split, e.g. in complement).
fn select_any_literal_variable(cubes: &[Cube], num_inputs: usize) -> Option<usize> {
    let mut counts = vec![0usize; num_inputs];
    for cube in cubes {
        for (var, _) in cube.literals() {
            counts[var] += 1;
        }
    }
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .max_by_key(|&(_, &c)| c)
        .map(|(var, _)| var)
}

/// Whether the input part of `cube` is covered by the single-output `cover`
/// (i.e. every minterm of `cube` is in the cover).
///
/// Computed as tautology of the cover cofactored against the cube.
#[must_use]
pub fn cover_contains_input_cube(cover: &Cover, cube: &Cube) -> bool {
    let mut cofactored: Vec<Cube> = Vec::new();
    'cubes: for c in cover.iter() {
        // Cofactor c against cube's literals.
        let mut cc = c.clone();
        for (var, phase) in cube.literals() {
            match cc.var_state(var) {
                VarState::Literal(p) if p != phase => continue 'cubes,
                VarState::Empty => continue 'cubes,
                _ => cc.clear_literal(var),
            }
        }
        cofactored.push(cc);
    }
    // The variables bound by the cube are now DC in every cofactored cube,
    // so a tautology over all inputs is one over the free variables: the
    // minterm bound in tautology_rec counts bound variables on both sides.
    tautology_rec(&cofactored, cover.num_inputs(), 0)
}

/// Whether `cube` (a multi-output cube) is functionally covered by `cover`:
/// for every output the cube drives, the cube's input part lies inside that
/// output's cover.
#[must_use]
pub fn cover_contains_cube(cover: &Cover, cube: &Cube) -> bool {
    cube.outputs()
        .all(|out| cover_contains_input_cube(&cover.output_cover(out), cube))
}

/// Complement of a single-output cover.
///
/// Recursively splits on the most binate variable; the base cases are the
/// empty cover (complement = universe), a cover containing the universal
/// cube (complement = empty) and the single-cube cover (De Morgan).
///
/// # Panics
///
/// Panics if `cover` is not single-output.
///
/// # Examples
///
/// ```
/// use xbar_logic::{complement, Cover, cube, is_tautology};
///
/// let f = Cover::from_cubes(3, 1, [cube("11- 1"), cube("--0 1")])?;
/// let g = complement(&f);
/// // f + f̄ is a tautology and f · f̄ is empty.
/// let mut union = f.clone();
/// for c in g.iter() { union.push(c.clone()); }
/// assert!(is_tautology(&union));
/// # Ok::<(), xbar_logic::LogicError>(())
/// ```
#[must_use]
pub fn complement(cover: &Cover) -> Cover {
    assert_eq!(
        cover.num_outputs(),
        1,
        "complement expects a single-output cover"
    );
    let cubes: Vec<Cube> = cover.iter().cloned().collect();
    let mut result_cubes = complement_rec(&cubes, cover.num_inputs(), 0);
    // Light cleanup: single-cube containment.
    let mut result = Cover::new(cover.num_inputs(), 1);
    for c in result_cubes.drain(..) {
        result.push(c);
    }
    result.drop_empty_cubes();
    result.drop_contained_cubes();
    result
}

fn complement_rec(cubes: &[Cube], num_inputs: usize, depth: usize) -> Vec<Cube> {
    assert!(depth < MAX_DEPTH, "complement recursion too deep");
    if cubes.is_empty() {
        return vec![Cube::universe(num_inputs, 1)];
    }
    if cubes.iter().any(Cube::is_input_universe) {
        return Vec::new();
    }
    if cubes.len() == 1 {
        return complement_single_cube(&cubes[0]);
    }
    let var = select_binate_variable(cubes, num_inputs)
        .or_else(|| select_any_literal_variable(cubes, num_inputs))
        .expect("non-universe cubes must have literals");

    let pos = cofactor_cubes(cubes, var, Phase::Positive);
    let neg = cofactor_cubes(cubes, var, Phase::Negative);
    let mut pos_comp = complement_rec(&pos, num_inputs, depth + 1);
    let neg_comp = complement_rec(&neg, num_inputs, depth + 1);

    for c in &mut pos_comp {
        c.set_literal(var, Phase::Positive);
    }
    let mut result = pos_comp;
    for mut c in neg_comp {
        c.set_literal(var, Phase::Negative);
        result.push(c);
    }
    // Merge pairs that differ only in the split variable (simple consensus
    // lift to keep the cover from exploding).
    merge_split_pairs(&mut result, var);
    result
}

/// De Morgan complement of one cube: one cube per literal, with the literal
/// inverted.
fn complement_single_cube(cube: &Cube) -> Vec<Cube> {
    cube.literals()
        .map(|(var, phase)| {
            Cube::universe(cube.num_inputs(), 1).with_literal(var, phase.inverted())
        })
        .collect()
}

/// After a Shannon split on `var`, cubes `x·c` and `x̄·c` merge back to `c`.
fn merge_split_pairs(cubes: &mut Vec<Cube>, var: usize) {
    loop {
        let mut merge: Option<(usize, usize)> = None;
        'scan: for i in 0..cubes.len() {
            if let VarState::Literal(p) = cubes[i].var_state(var) {
                let mut twin = cubes[i].clone();
                twin.set_literal(var, p.inverted());
                for (j, other) in cubes.iter().enumerate() {
                    if j != i && *other == twin {
                        merge = Some((i, j));
                        break 'scan;
                    }
                }
            }
        }
        match merge {
            Some((i, j)) => {
                cubes[i].clear_literal(var);
                cubes.remove(j);
            }
            None => break,
        }
    }
}

/// Complement of every output of a multi-output cover: the "negation of the
/// circuit" used for the paper's dual-implementation optimization.
///
/// Each output is complemented independently and the results are merged with
/// [`Cover::share_identical_products`] so shared products are counted once,
/// matching how a crossbar would implement them.
#[must_use]
pub fn complement_multi(cover: &Cover) -> Cover {
    let singles: Vec<Cover> = (0..cover.num_outputs())
        .map(|o| complement(&cover.output_cover(o)))
        .collect();
    Cover::from_single_outputs(&singles).share_identical_products()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::cube;

    fn cover_of(n: usize, specs: &[&str]) -> Cover {
        Cover::from_cubes(n, 1, specs.iter().map(|s| cube(s))).expect("valid cubes")
    }

    #[test]
    fn tautology_positive_and_negative_literal() {
        assert!(is_tautology(&cover_of(1, &["1 1", "0 1"])));
        assert!(!is_tautology(&cover_of(1, &["1 1"])));
    }

    #[test]
    fn tautology_empty_cover_is_false() {
        assert!(!is_tautology(&Cover::new(3, 1)));
    }

    #[test]
    fn tautology_universe_cube_is_true() {
        assert!(is_tautology(&cover_of(3, &["--- 1"])));
    }

    #[test]
    fn tautology_three_var_cover() {
        // x + x̄y + x̄ȳ is a tautology.
        assert!(is_tautology(&cover_of(3, &["1-- 1", "01- 1", "00- 1"])));
        // Remove one piece and it no longer is.
        assert!(!is_tautology(&cover_of(3, &["1-- 1", "01- 1"])));
    }

    #[test]
    fn exhaustive_tautology_matches_evaluation() {
        // All 3-variable covers over a fixed small cube set.
        let pool = ["1-- 1", "0-- 1", "-1- 1", "--0 1", "011 1", "10- 1"];
        for mask in 0u32..1 << pool.len() {
            let specs: Vec<&str> = pool
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, s)| *s)
                .collect();
            let cover = cover_of(3, &specs);
            let brute = (0..8u64).all(|a| cover.evaluate_output(a, 0));
            assert_eq!(is_tautology(&cover), brute, "mask {mask:06b}");
        }
    }

    #[test]
    fn containment_of_input_cube() {
        let f = cover_of(3, &["1-- 1", "-1- 1"]);
        assert!(cover_contains_input_cube(&f, &cube("11- 1")));
        assert!(cover_contains_input_cube(&f, &cube("1-0 1")));
        assert!(!cover_contains_input_cube(&f, &cube("--1 1")));
    }

    #[test]
    fn complement_roundtrip_small() {
        let f = cover_of(3, &["11- 1", "--0 1"]);
        let g = complement(&f);
        for a in 0..8u64 {
            assert_eq!(
                g.evaluate_output(a, 0),
                !f.evaluate_output(a, 0),
                "assignment {a:03b}"
            );
        }
    }

    #[test]
    fn complement_of_empty_is_universe() {
        let g = complement(&Cover::new(4, 1));
        assert!(is_tautology(&g));
    }

    #[test]
    fn complement_of_universe_is_empty() {
        let g = complement(&cover_of(4, &["---- 1"]));
        assert!(g.is_empty());
    }

    #[test]
    fn complement_single_cube_de_morgan() {
        let f = cover_of(3, &["101 1"]);
        let g = complement(&f);
        for a in 0..8u64 {
            assert_eq!(g.evaluate_output(a, 0), a != 0b101);
        }
    }

    #[test]
    fn complement_multi_negates_every_output() {
        let f = Cover::from_cubes(3, 2, [cube("11- 10"), cube("--0 01")]).expect("dims");
        let g = complement_multi(&f);
        assert_eq!(g.num_outputs(), 2);
        for a in 0..8u64 {
            let fv = f.evaluate(a);
            let gv = g.evaluate(a);
            assert_eq!(gv[0], !fv[0]);
            assert_eq!(gv[1], !fv[1]);
        }
    }

    #[test]
    fn cover_contains_multi_output_cube() {
        let f = Cover::from_cubes(3, 2, [cube("1-- 11"), cube("-1- 01")]).expect("dims");
        // 11- drives output 1 in both covers.
        assert!(cover_contains_cube(&f, &cube("11- 01")));
        // Output 0 only covered by x0.
        assert!(!cover_contains_cube(&f, &cube("-1- 10")));
    }
}
