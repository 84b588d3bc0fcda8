//! CNF encoding of the compiled position space: Tseitin clauses,
//! per-fault miters with fault-injection networks and active-path
//! clauses, and full-circuit equivalence miters.
//!
//! This is the formal side of the ATPG stack. Where PODEM searches the
//! input space directly (and gives up at its backtrack limit), this
//! module translates a question about the circuit into propositional
//! satisfiability and hands it to the vendored CDCL solver
//! ([`sat::Solver`]):
//!
//! * [`prove_fault`] — *is this stuck-at fault testable?* Builds a
//!   **miter** between the good circuit and a fault-injected copy,
//!   restricted to the fault's output cone: only positions in the
//!   fault's transitive fanout (the faulty region F) get distinct
//!   "faulty" variables, every other line is shared, and fanout nodes
//!   whose cached reachability mask ([`LevelizedCsr::out_mask_at`]) is
//!   zero are skipped outright because nothing they compute can reach
//!   an output. On top of the miter it adds Larrabee-style
//!   **active-path** clauses: one variable `s_p` per position `p` of F,
//!   with `s_p → good_p ≠ faulty_p`, `s_p → ∨ s_q` over the fanouts `q`
//!   of a non-output `p` that lie in F, and the unit clause `s_e` on the
//!   effect site `e`. Any input assignment that makes an output differ
//!   also differs along some path from `e` to that output, so the miter
//!   implies these clauses and no verdict changes; what they add is
//!   propagation, so a fault whose every path is blocked is refuted in
//!   a handful of conflicts instead of an enumeration of side inputs.
//!   SAT ⇒ the model is a [`TestCube`] that specifies **every** input:
//!   each input has a solver variable, and the solver answers SAT only
//!   once it has assigned every variable, so inputs outside the fault's
//!   cone get a value too (whatever the search left them at). UNSAT ⇒
//!   the fault is **provably redundant**; a conflict-limited run may
//!   also return [`FaultVerdict::Undecided`].
//! * [`prove_fault_reference`] — the same miter without the active-path
//!   clauses, kept as the differential oracle: the encoding-agreement
//!   suite requires both to return the same verdict on every fault it
//!   covers. Its models may differ from `prove_fault`'s.
//! * [`check_equiv`] — *do two netlists compute the same outputs?*
//!   A full-circuit miter over shared primary inputs (matched by
//!   declaration order). UNSAT ⇒ equivalent; SAT ⇒ a concrete
//!   distinguishing input assignment.
//!
//! A fault query opens a `sat.prove` span with two children:
//! `sat.encode` (the region walk and every clause) and `sat.solve` (the
//! CDCL search and the model read-out). The rest of `sat.prove` is
//! freeing the solver. A fault whose effect reaches no output is
//! settled inside `sat.encode` and opens no `sat.solve`.
//!
//! The encoding walks positions of the [`LevelizedCsr`] in order — a
//! node's fanins always sit at lower positions, so one forward sweep
//! emits every gate's clauses after its input literals exist. All gate
//! kinds are supported at their full arity; n-ary XOR/XNOR chains
//! through auxiliary parity variables.
//!
//! Everything here is deterministic: the same circuit and fault always
//! produce the same clause set in the same order, and the solver itself
//! is deterministic, so verdicts (and extracted cubes) are reproducible
//! across runs, threads, and the speculative ATPG pool.

use adi_netlist::fault::{Fault, FaultSite};
use adi_netlist::{CompiledCircuit, GateKind, LevelizedCsr};
use sat::{Lit, Solver, Verdict};

use crate::cube::TestCube;

/// Default conflict budget for one fault query or equivalence check.
///
/// With the active-path clauses, every fault query of the redundancy
/// screen on the suite circuits (irs208 through irs13207) ends within 4
/// conflicts, and all but one of them within 2, so at the defaults no
/// query reaches this budget; without them, irs13207's proofs took up
/// to 4,465 conflicts. The budget stays as the bound on a pathological
/// query. PODEM's redundancy screen runs its proofs at
/// `min(1_000, sat_conflict_limit)` and leaves whatever it cannot
/// settle to a query at this limit.
pub const DEFAULT_CONFLICT_LIMIT: u64 = 100_000;

/// Verdict of a single-fault testability query ([`prove_fault`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FaultVerdict {
    /// The fault is testable; the cube is a satisfying input assignment
    /// with every input specified (the solver assigns every variable,
    /// including the inputs the miter does not constrain), so fill
    /// leaves it unchanged.
    Testable(TestCube),
    /// The miter is unsatisfiable: no input assignment distinguishes
    /// the faulty circuit, i.e. the fault is provably redundant.
    Redundant,
    /// The conflict limit ran out before a verdict.
    Undecided,
}

/// Verdict of a bounded equivalence check ([`check_equiv`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EquivVerdict {
    /// The miter is unsatisfiable: the circuits agree on every input.
    Equivalent,
    /// A distinguishing assignment exists; one is returned, one value
    /// per primary input in declaration order.
    Inequivalent(Vec<bool>),
    /// The conflict limit ran out before a verdict.
    Undecided,
}

/// Interface mismatch between the two sides of an equivalence check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EquivError {
    /// The circuits declare different primary-input counts.
    InputCountMismatch(usize, usize),
    /// The circuits declare different primary-output counts.
    OutputCountMismatch(usize, usize),
}

impl std::fmt::Display for EquivError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            EquivError::InputCountMismatch(l, r) => {
                write!(f, "input count mismatch: left has {l}, right has {r}")
            }
            EquivError::OutputCountMismatch(l, r) => {
                write!(f, "output count mismatch: left has {l}, right has {r}")
            }
        }
    }
}

impl std::error::Error for EquivError {}

/// Forces the line carried by `l` to `value` with a unit clause.
fn force(s: &mut Solver, l: Lit, value: bool) {
    s.add_clause(&[if value { l } else { !l }]);
}

/// Emits `a ≡ b`.
fn equiv2(s: &mut Solver, a: Lit, b: Lit) {
    s.add_clause(&[!a, b]);
    s.add_clause(&[a, !b]);
}

/// Emits `z ≡ a ⊕ b`.
fn xor3(s: &mut Solver, z: Lit, a: Lit, b: Lit) {
    s.add_clause(&[!z, a, b]);
    s.add_clause(&[!z, !a, !b]);
    s.add_clause(&[z, !a, b]);
    s.add_clause(&[z, a, !b]);
}

/// Emits the Tseitin clauses binding `out` to `kind` over `ins`.
///
/// `Input` positions have no logic function and must not be passed here;
/// constants take no input literals.
fn encode_gate(s: &mut Solver, kind: GateKind, out: Lit, ins: &[Lit]) {
    match kind {
        GateKind::Input => unreachable!("inputs have no gate function"),
        GateKind::Const0 => {
            s.add_clause(&[!out]);
        }
        GateKind::Const1 => {
            s.add_clause(&[out]);
        }
        GateKind::Buf => equiv2(s, out, ins[0]),
        GateKind::Not => equiv2(s, out, !ins[0]),
        GateKind::And => {
            let mut long: Vec<Lit> = ins.iter().map(|&i| !i).collect();
            long.push(out);
            for &i in ins {
                s.add_clause(&[!out, i]);
            }
            s.add_clause(&long);
        }
        GateKind::Nand => {
            let mut long: Vec<Lit> = ins.iter().map(|&i| !i).collect();
            long.push(!out);
            for &i in ins {
                s.add_clause(&[out, i]);
            }
            s.add_clause(&long);
        }
        GateKind::Or => {
            let mut long: Vec<Lit> = ins.to_vec();
            long.push(!out);
            for &i in ins {
                s.add_clause(&[out, !i]);
            }
            s.add_clause(&long);
        }
        GateKind::Nor => {
            let mut long: Vec<Lit> = ins.to_vec();
            long.push(out);
            for &i in ins {
                s.add_clause(&[!out, !i]);
            }
            s.add_clause(&long);
        }
        GateKind::Xor | GateKind::Xnor => {
            // Fold a parity chain through auxiliary variables; the last
            // link binds `out` directly (inverted for XNOR).
            let target = if kind == GateKind::Xor { out } else { !out };
            match ins.len() {
                1 => equiv2(s, target, ins[0]),
                _ => {
                    let mut acc = ins[0];
                    for (k, &i) in ins.iter().enumerate().skip(1) {
                        if k + 1 == ins.len() {
                            xor3(s, target, acc, i);
                        } else {
                            let aux = Lit::pos(s.new_var());
                            xor3(s, aux, acc, i);
                            acc = aux;
                        }
                    }
                }
            }
        }
    }
}

/// Encodes the backward closure of `roots` (positions of `csr`) into
/// `solver`, sharing `input_lits` (one per primary input, in declaration
/// order) for the `Input` positions. Returns one literal per position
/// (`None` outside the closure).
fn encode_cone(
    solver: &mut Solver,
    csr: &LevelizedCsr,
    input_lits: &[Lit],
    roots: &[usize],
) -> Vec<Option<Lit>> {
    let n = csr.num_nodes();
    let mut needed = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for &r in roots {
        if !needed[r] {
            needed[r] = true;
            stack.push(r);
        }
    }
    while let Some(p) = stack.pop() {
        for &f in csr.fanins_at(p) {
            let fp = f as usize;
            if !needed[fp] {
                needed[fp] = true;
                stack.push(fp);
            }
        }
    }
    let mut lit: Vec<Option<Lit>> = vec![None; n];
    for (k, &ip) in csr.inputs().iter().enumerate() {
        lit[ip as usize] = Some(input_lits[k]);
    }
    for p in 0..n {
        if !needed[p] || lit[p].is_some() {
            continue;
        }
        let out = Lit::pos(solver.new_var());
        lit[p] = Some(out);
        let ins: Vec<Lit> = csr
            .fanins_at(p)
            .iter()
            .map(|&f| lit[f as usize].expect("fanin precedes reader in position order"))
            .collect();
        encode_gate(solver, csr.kind_at(p), out, &ins);
    }
    lit
}

/// Builds and solves the cone-restricted fault miter for `fault`, with
/// the active-path clauses of the [module docs](self).
///
/// The query is bounded by `conflict_limit` solver conflicts; pass
/// [`DEFAULT_CONFLICT_LIMIT`] unless you have a reason not to.
///
/// # Panics
///
/// Panics if `fault` references nodes outside `circuit`.
pub fn prove_fault(circuit: &CompiledCircuit, fault: Fault, conflict_limit: u64) -> FaultVerdict {
    prove(circuit, fault, conflict_limit, true)
}

/// The plain miter of [`prove_fault`], without the active-path
/// clauses: the differential oracle of the encoding-agreement suite,
/// not a production path. Every verdict equals `prove_fault`'s (the
/// miter implies the extra clauses); a `Testable` model may differ.
///
/// # Panics
///
/// Panics if `fault` references nodes outside `circuit`.
pub fn prove_fault_reference(
    circuit: &CompiledCircuit,
    fault: Fault,
    conflict_limit: u64,
) -> FaultVerdict {
    prove(circuit, fault, conflict_limit, false)
}

/// Encodes the miter for `fault` (timed as `sat.encode`) and solves it
/// (`sat.solve`), both under one `sat.prove` span.
fn prove(
    circuit: &CompiledCircuit,
    fault: Fault,
    conflict_limit: u64,
    active_paths: bool,
) -> FaultVerdict {
    static SPAN_PROVE: adi_obs::SpanSite = adi_obs::SpanSite::new("sat.prove");
    static SPAN_ENCODE: adi_obs::SpanSite = adi_obs::SpanSite::new("sat.encode");
    static SPAN_SOLVE: adi_obs::SpanSite = adi_obs::SpanSite::new("sat.solve");
    let _span = SPAN_PROVE.enter();
    let encoded = {
        let _encode = SPAN_ENCODE.enter();
        encode_fault(circuit.view(), fault, active_paths)
    };
    let Some((mut solver, input_lits)) = encoded else {
        return FaultVerdict::Redundant;
    };
    let _solve = SPAN_SOLVE.enter();
    match solver.solve(conflict_limit) {
        Verdict::Unsat => FaultVerdict::Redundant,
        Verdict::Unknown => FaultVerdict::Undecided,
        Verdict::Sat => {
            let values: Vec<Option<bool>> =
                input_lits.iter().map(|l| solver.value(l.var())).collect();
            FaultVerdict::Testable(TestCube::from_options(values))
        }
    }
}

/// Builds the miter for `fault`, with active-path clauses when
/// `active_paths` is set. Returns the solver and one literal per
/// primary input, or `None` when no output lies in the fault's cone
/// (the fault is redundant without a query).
fn encode_fault(
    csr: &LevelizedCsr,
    fault: Fault,
    active_paths: bool,
) -> Option<(Solver, Vec<Lit>)> {
    let n = csr.num_nodes();
    let epos = csr.position(fault.effect_node());

    // A fault whose effect site reaches no output is redundant outright;
    // the cached reachability mask answers this without a solver.
    if !csr.reaches_output(epos) {
        return None;
    }

    // Faulty region F: the transitive fanout of the effect site, pruned
    // by the cached output-cone masks — a fanout node that reaches no
    // output cannot influence the miter.
    let mut in_f = vec![false; n];
    let mut stack = vec![epos];
    in_f[epos] = true;
    while let Some(p) = stack.pop() {
        for &g in csr.fanouts_at(p) {
            let gp = g as usize;
            if !in_f[gp] && csr.reaches_output(gp) {
                in_f[gp] = true;
                stack.push(gp);
            }
        }
    }
    let f_positions: Vec<usize> = (0..n).filter(|&p| in_f[p]).collect();
    let miter_outputs: Vec<usize> = f_positions
        .iter()
        .copied()
        .filter(|&p| csr.is_output_at(p))
        .collect();
    if miter_outputs.is_empty() {
        return None;
    }

    let mut solver = Solver::new();
    let input_lits: Vec<Lit> = csr
        .inputs()
        .iter()
        .map(|_| Lit::pos(solver.new_var()))
        .collect();

    // Good copy: the backward closure of the miter outputs plus every
    // line the faulty region reads (shared fanins outside F) plus the
    // activation site.
    let mut roots: Vec<usize> = miter_outputs.clone();
    roots.push(epos);
    for &p in &f_positions {
        roots.extend(csr.fanins_at(p).iter().map(|&f| f as usize));
    }
    let good = encode_cone(&mut solver, csr, &input_lits, &roots);

    // Faulty copy: fresh variables for F only; everything else shares
    // the good line. The effect site itself is the injection point.
    let mut faulty: Vec<Option<Lit>> = good.clone();
    for &p in &f_positions {
        faulty[p] = Some(Lit::pos(solver.new_var()));
    }
    let stuck_lit = {
        // One variable pinned to the stuck value models the broken line.
        let l = Lit::pos(solver.new_var());
        force(&mut solver, l, fault.stuck_value());
        l
    };
    for &p in &f_positions {
        let out = faulty[p].expect("faulty region was just allocated");
        if p == epos {
            match fault.site() {
                FaultSite::Stem(_) => {
                    // The stem's output line is the stuck constant.
                    force(&mut solver, out, fault.stuck_value());
                    // Activation: the good value must differ or the two
                    // copies are identical (pure strengthening).
                    let g = good[p].expect("effect site is in the good closure");
                    force(&mut solver, g, !fault.stuck_value());
                }
                FaultSite::Branch { pin, .. } => {
                    // The reading gate sees the stuck constant on `pin`;
                    // every other pin reads its normal (shared or
                    // faulty) line.
                    let ins: Vec<Lit> = csr
                        .fanins_at(p)
                        .iter()
                        .enumerate()
                        .map(|(k, &f)| {
                            if k == pin as usize {
                                stuck_lit
                            } else {
                                faulty[f as usize].expect("fanin encoded")
                            }
                        })
                        .collect();
                    encode_gate(&mut solver, csr.kind_at(p), out, &ins);
                    // Activation: the branch's source line must carry
                    // the non-stuck value.
                    let src = csr.fanins_at(p)[pin as usize] as usize;
                    let g = good[src].expect("branch source is in the good closure");
                    force(&mut solver, g, !fault.stuck_value());
                }
            }
        } else if csr.kind_at(p) == GateKind::Input {
            // An input inside F can only be the effect site itself.
            unreachable!("primary inputs have no fanins to propagate a fault through");
        } else {
            let ins: Vec<Lit> = csr
                .fanins_at(p)
                .iter()
                .map(|&f| faulty[f as usize].expect("fanin encoded"))
                .collect();
            encode_gate(&mut solver, csr.kind_at(p), out, &ins);
        }
    }

    // Miter: at least one relevant output differs.
    let mut diff: Vec<Lit> = Vec::with_capacity(miter_outputs.len());
    for &o in &miter_outputs {
        let d = Lit::pos(solver.new_var());
        xor3(
            &mut solver,
            d,
            good[o].expect("miter output in good closure"),
            faulty[o].expect("miter output in faulty region"),
        );
        diff.push(d);
    }
    solver.add_clause(&diff);

    if active_paths {
        // Active path: `s_p` marks a position the fault effect travels
        // through. It differs in the two copies, and unless it is an
        // output it hands the effect on to some fanout in F. Every
        // input assignment that satisfies the miter has such a path
        // from the effect site, so no verdict changes; the clauses let
        // the solver refute a blocked cone without enumerating its side
        // inputs.
        let mut active: Vec<Option<Lit>> = vec![None; n];
        for &p in &f_positions {
            active[p] = Some(Lit::pos(solver.new_var()));
        }
        let mut clause: Vec<Lit> = Vec::new();
        for &p in &f_positions {
            let s = active[p].expect("allocated for every position of F");
            let g = good[p].expect("F lies in the good closure");
            let f = faulty[p].expect("faulty region was just allocated");
            solver.add_clause(&[!s, g, f]);
            solver.add_clause(&[!s, !g, !f]);
            if !csr.is_output_at(p) {
                clause.clear();
                clause.push(!s);
                clause.extend(csr.fanouts_at(p).iter().filter_map(|&q| active[q as usize]));
                solver.add_clause(&clause);
            }
        }
        solver.add_clause(&[active[epos].expect("the effect site is in F")]);
    }
    Some((solver, input_lits))
}

/// Checks bounded equivalence of two compiled circuits via a
/// full-circuit miter over shared primary inputs.
///
/// Inputs and outputs are matched by declaration order; the counts must
/// agree on both sides ([`EquivError`] otherwise — names are ignored,
/// matching the hash-based cache's rename-invariance). The check is
/// bounded by `conflict_limit` solver conflicts and may return
/// [`EquivVerdict::Undecided`].
pub fn check_equiv(
    left: &CompiledCircuit,
    right: &CompiledCircuit,
    conflict_limit: u64,
) -> Result<EquivVerdict, EquivError> {
    static SPAN_EQUIV: adi_obs::SpanSite = adi_obs::SpanSite::new("sat.equiv");
    let _span = SPAN_EQUIV.enter();
    let (lv, rv) = (left.view(), right.view());
    if lv.inputs().len() != rv.inputs().len() {
        return Err(EquivError::InputCountMismatch(
            lv.inputs().len(),
            rv.inputs().len(),
        ));
    }
    if lv.outputs().len() != rv.outputs().len() {
        return Err(EquivError::OutputCountMismatch(
            lv.outputs().len(),
            rv.outputs().len(),
        ));
    }

    let mut solver = Solver::new();
    let input_lits: Vec<Lit> = lv
        .inputs()
        .iter()
        .map(|_| Lit::pos(solver.new_var()))
        .collect();
    let lroots: Vec<usize> = lv.outputs().iter().map(|&p| p as usize).collect();
    let rroots: Vec<usize> = rv.outputs().iter().map(|&p| p as usize).collect();
    let llit = encode_cone(&mut solver, lv, &input_lits, &lroots);
    let rlit = encode_cone(&mut solver, rv, &input_lits, &rroots);

    let mut diff: Vec<Lit> = Vec::with_capacity(lroots.len());
    for (k, &lo) in lroots.iter().enumerate() {
        let ro = rroots[k];
        let d = Lit::pos(solver.new_var());
        xor3(
            &mut solver,
            d,
            llit[lo].expect("left output encoded"),
            rlit[ro].expect("right output encoded"),
        );
        diff.push(d);
    }
    if diff.is_empty() {
        // No outputs on either side: vacuously equivalent.
        return Ok(EquivVerdict::Equivalent);
    }
    solver.add_clause(&diff);

    match solver.solve(conflict_limit) {
        Verdict::Unsat => Ok(EquivVerdict::Equivalent),
        Verdict::Unknown => Ok(EquivVerdict::Undecided),
        Verdict::Sat => {
            let witness: Vec<bool> = input_lits
                .iter()
                .map(|l| solver.value(l.var()).unwrap_or(false))
                .collect();
            Ok(EquivVerdict::Inequivalent(witness))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adi_netlist::{bench_format, GateKind, NetlistBuilder};

    const C17: &str = "
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

    fn c17() -> CompiledCircuit {
        CompiledCircuit::compile(bench_format::parse(C17, "c17").unwrap())
    }

    /// `y = a OR (a AND b)`: the AND gate is redundant logic (`y == a`).
    fn redundant_fixture() -> (CompiledCircuit, adi_netlist::NodeId) {
        let mut b = NetlistBuilder::new("red");
        let a = b.add_input("a");
        let bb = b.add_input("b");
        let t = b.add_gate(GateKind::And, "t", &[a, bb]).unwrap();
        let y = b.add_gate(GateKind::Or, "y", &[a, t]).unwrap();
        b.mark_output(y);
        (CompiledCircuit::compile(b.build().unwrap()), t)
    }

    #[test]
    fn known_redundant_fault_proved_unsat() {
        let (circuit, t) = redundant_fixture();
        let verdict = prove_fault(&circuit, Fault::stem_at(t, false), DEFAULT_CONFLICT_LIMIT);
        assert_eq!(verdict, FaultVerdict::Redundant);
    }

    #[test]
    fn testable_fault_yields_a_cube() {
        // t stuck-at-1 forces y = 1; good y = a, so a = 0 distinguishes.
        let (circuit, t) = redundant_fixture();
        match prove_fault(&circuit, Fault::stem_at(t, true), DEFAULT_CONFLICT_LIMIT) {
            FaultVerdict::Testable(cube) => assert_eq!(cube.get(0), Some(false)),
            other => panic!("expected testable, got {other:?}"),
        }
    }

    #[test]
    fn testable_cubes_specify_every_input() {
        // The solver assigns every variable before it answers SAT, so a
        // cube leaves no input open, not even one outside the miter.
        let circuit = adi_circuits::paper_suite()[0].compiled();
        let faults = circuit.collapsed_faults();
        let mut testable = 0;
        for (_, fault) in faults.iter().step_by(7) {
            if let FaultVerdict::Testable(cube) = prove_fault(&circuit, fault, DEFAULT_CONFLICT_LIMIT) {
                assert_eq!(cube.len(), circuit.netlist().num_inputs(), "{fault}");
                assert_eq!(cube.specified_count(), cube.len(), "{fault}: {cube:?}");
                testable += 1;
            }
        }
        assert!(testable > 10, "only {testable} testable faults sampled");
    }

    #[test]
    fn every_c17_fault_is_testable() {
        // c17 is fully testable: no collapsed fault may be redundant.
        let circuit = c17();
        for (_, fault) in adi_netlist::fault::FaultList::collapsed(circuit.netlist()).iter() {
            match prove_fault(&circuit, fault, DEFAULT_CONFLICT_LIMIT) {
                FaultVerdict::Testable(_) => {}
                other => panic!("{fault}: expected testable, got {other:?}"),
            }
        }
    }

    #[test]
    fn circuit_is_equivalent_to_itself() {
        let circuit = c17();
        assert_eq!(
            check_equiv(&circuit, &circuit, DEFAULT_CONFLICT_LIMIT),
            Ok(EquivVerdict::Equivalent)
        );
    }

    #[test]
    fn single_gate_mutation_is_inequivalent_with_witness() {
        let circuit = c17();
        let mutated = CompiledCircuit::compile(
            bench_format::parse(&C17.replace("G10 = NAND(G1, G3)", "G10 = NOR(G1, G3)"), "c17m")
                .unwrap(),
        );
        match check_equiv(&circuit, &mutated, DEFAULT_CONFLICT_LIMIT) {
            Ok(EquivVerdict::Inequivalent(witness)) => {
                assert_eq!(witness.len(), circuit.view().inputs().len());
            }
            other => panic!("expected inequivalent, got {other:?}"),
        }
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let circuit = c17();
        let (small, _) = redundant_fixture();
        assert_eq!(
            check_equiv(&circuit, &small, DEFAULT_CONFLICT_LIMIT),
            Err(EquivError::InputCountMismatch(5, 2))
        );
    }
}
