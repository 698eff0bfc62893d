//! Workflows: DAGs of modules over a shared attribute space, and their
//! provenance relations.

use crate::error::WorkflowError;
use crate::module::{Module, ModuleId, Visibility};
use std::fmt;
use sv_relation::{AttrId, AttrSet, Fd, Relation, Schema, Tuple, Value};

/// A workflow `W` over modules `m_1 … m_n` (§2.3).
///
/// Invariants enforced at construction:
/// * `I_i ∩ O_i = ∅` for every module,
/// * `O_i ∩ O_j = ∅` for `i ≠ j` (every data item has a unique producer),
/// * the module dependency graph is acyclic.
///
/// Attributes not produced by any module are the **initial inputs** `I_0`;
/// they form the key of the provenance relation `R`. Attributes consumed
/// by several modules constitute *data sharing* (Definition 3).
#[derive(Clone)]
pub struct Workflow {
    schema: Schema,
    modules: Vec<Module>,
    topo: Vec<ModuleId>,
    initial_inputs: Vec<AttrId>,
    producer: Vec<Option<ModuleId>>,
    consumers: Vec<Vec<ModuleId>>,
}

impl Workflow {
    /// Validates and assembles a workflow.
    ///
    /// # Errors
    /// Any of the structural violations in [`WorkflowError`].
    pub fn new(schema: Schema, modules: Vec<Module>) -> Result<Self, WorkflowError> {
        let n_attrs = schema.len();
        let mut producer: Vec<Option<ModuleId>> = vec![None; n_attrs];
        let mut consumers: Vec<Vec<ModuleId>> = vec![Vec::new(); n_attrs];

        for (mi, m) in modules.iter().enumerate() {
            let mid = ModuleId(mi as u32);
            let iset = m.input_set();
            for &o in &m.outputs {
                if iset.contains(o) {
                    return Err(WorkflowError::InputOutputOverlap {
                        module: m.name.clone(),
                        attr: schema.attr(o).name.clone(),
                    });
                }
                if producer[o.index()].is_some() {
                    return Err(WorkflowError::OutputClash {
                        attr: schema.attr(o).name.clone(),
                    });
                }
                producer[o.index()] = Some(mid);
            }
            for &i in &m.inputs {
                consumers[i.index()].push(mid);
            }
        }

        let topo = Self::topo_sort(&modules, &producer)?;

        let initial_inputs: Vec<AttrId> = (0..n_attrs)
            .map(|i| AttrId(i as u32))
            .filter(|a| producer[a.index()].is_none() && !consumers[a.index()].is_empty())
            .collect();

        Ok(Self {
            schema,
            modules,
            topo,
            initial_inputs,
            producer,
            consumers,
        })
    }

    /// Kahn topological sort on the module dependency graph
    /// (`m_i → m_j` iff some output of `m_i` is an input of `m_j`).
    fn topo_sort(
        modules: &[Module],
        producer: &[Option<ModuleId>],
    ) -> Result<Vec<ModuleId>, WorkflowError> {
        let n = modules.len();
        let mut indeg = vec![0usize; n];
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, m) in modules.iter().enumerate() {
            for &i in &m.inputs {
                if let Some(p) = producer[i.index()] {
                    edges[p.index()].push(j);
                    indeg[j] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(ModuleId(u as u32));
            for &v in &edges[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(WorkflowError::Cyclic)
        }
    }

    /// The global attribute schema `A = ∪ (I_i ∪ O_i)`.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The modules, in declaration order.
    #[must_use]
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Number of modules `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether the workflow has no modules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// The module with the given id.
    ///
    /// # Errors
    /// [`WorkflowError::NoSuchModule`] if out of range.
    pub fn module(&self, id: ModuleId) -> Result<&Module, WorkflowError> {
        self.modules
            .get(id.index())
            .ok_or(WorkflowError::NoSuchModule { index: id.index() })
    }

    /// Module ids in a valid topological order.
    #[must_use]
    pub fn topo_order(&self) -> &[ModuleId] {
        &self.topo
    }

    /// Initial (external) input attributes `I_0`, in id order.
    #[must_use]
    pub fn initial_inputs(&self) -> &[AttrId] {
        &self.initial_inputs
    }

    /// Attributes produced by some module but consumed by none — the
    /// workflow's final outputs.
    #[must_use]
    pub fn final_outputs(&self) -> Vec<AttrId> {
        (0..self.schema.len())
            .map(|i| AttrId(i as u32))
            .filter(|a| self.producer[a.index()].is_some() && self.consumers[a.index()].is_empty())
            .collect()
    }

    /// The module producing attribute `a`, if any.
    #[must_use]
    pub fn producer(&self, a: AttrId) -> Option<ModuleId> {
        self.producer[a.index()]
    }

    /// The modules consuming attribute `a`.
    #[must_use]
    pub fn consumers(&self, a: AttrId) -> &[ModuleId] {
        &self.consumers[a.index()]
    }

    /// The workflow's data-sharing degree `γ` (Definition 3): the maximum,
    /// over attributes, of the number of modules taking the attribute as
    /// input.
    #[must_use]
    pub fn data_sharing_degree(&self) -> usize {
        self.consumers.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The FD set `F = {I_i -> O_i}` of the provenance relation.
    #[must_use]
    pub fn fds(&self) -> Vec<Fd> {
        self.modules.iter().map(Module::fd).collect()
    }

    /// Ids of private modules.
    #[must_use]
    pub fn private_modules(&self) -> Vec<ModuleId> {
        self.filter_by_visibility(Visibility::Private)
    }

    /// Ids of public modules.
    #[must_use]
    pub fn public_modules(&self) -> Vec<ModuleId> {
        self.filter_by_visibility(Visibility::Public)
    }

    fn filter_by_visibility(&self, v: Visibility) -> Vec<ModuleId> {
        self.modules
            .iter()
            .enumerate()
            .filter(|(_, m)| m.visibility == v)
            .map(|(i, _)| ModuleId(i as u32))
            .collect()
    }

    /// Whether every module is private (the §4 *all-private* setting).
    #[must_use]
    pub fn is_all_private(&self) -> bool {
        self.modules
            .iter()
            .all(|m| m.visibility == Visibility::Private)
    }

    /// Returns a copy with module `id`'s visibility replaced — the
    /// *privatization* operation of §5 (hiding a public module's name).
    ///
    /// # Errors
    /// [`WorkflowError::NoSuchModule`] if out of range.
    pub fn with_visibility(
        &self,
        id: ModuleId,
        visibility: Visibility,
    ) -> Result<Self, WorkflowError> {
        let mut w = self.clone();
        w.modules
            .get_mut(id.index())
            .ok_or(WorkflowError::NoSuchModule { index: id.index() })?
            .visibility = visibility;
        Ok(w)
    }

    /// Returns a copy with module `id`'s function replaced (used by the
    /// Lemma-1 flipping construction to build alternative worlds).
    ///
    /// # Errors
    /// [`WorkflowError::NoSuchModule`] if out of range.
    pub fn with_function(
        &self,
        id: ModuleId,
        func: crate::module::ModuleFn,
    ) -> Result<Self, WorkflowError> {
        let mut w = self.clone();
        w.modules
            .get_mut(id.index())
            .ok_or(WorkflowError::NoSuchModule { index: id.index() })?
            .func = func;
        Ok(w)
    }

    /// Executes the workflow on an assignment of the initial inputs
    /// (given in [`Self::initial_inputs`] order), producing the full
    /// provenance tuple over `A`.
    ///
    /// # Errors
    /// Input validation or module misbehaviour errors.
    pub fn run(&self, inputs: &[Value]) -> Result<Tuple, WorkflowError> {
        if inputs.len() != self.initial_inputs.len() {
            return Err(WorkflowError::BadInputArity {
                expected: self.initial_inputs.len(),
                got: inputs.len(),
            });
        }
        let mut vals = vec![0u32; self.schema.len()];
        for (&a, &v) in self.initial_inputs.iter().zip(inputs.iter()) {
            let def = self.schema.attr(a);
            if !def.domain.contains(v) {
                return Err(WorkflowError::InputValueOutOfDomain {
                    attr: def.name.clone(),
                    value: v,
                });
            }
            vals[a.index()] = v;
        }
        for &mid in &self.topo {
            let m = &self.modules[mid.index()];
            let ins: Vec<Value> = m.inputs.iter().map(|&a| vals[a.index()]).collect();
            let outs = m.apply(&self.schema, &ins)?;
            for (&a, &v) in m.outputs.iter().zip(outs.iter()) {
                vals[a.index()] = v;
            }
        }
        Ok(Tuple::new(vals))
    }

    /// Number of distinct initial-input assignments.
    #[must_use]
    pub fn input_space_size(&self) -> u128 {
        self.initial_inputs
            .iter()
            .map(|&a| u128::from(self.schema.attr(a).domain.size()))
            .product()
    }

    /// Materializes the **provenance relation** `R` over all executions
    /// (one row per initial-input assignment; §2.3: "each tuple in R
    /// describes an execution of the workflow W").
    ///
    /// # Errors
    /// [`WorkflowError::DomainTooLarge`] if the input space exceeds
    /// `budget`.
    pub fn provenance_relation(&self, budget: u128) -> Result<Relation, WorkflowError> {
        let n = self.input_space_size();
        if n > budget {
            return Err(WorkflowError::DomainTooLarge {
                executions: n,
                budget,
            });
        }
        let sizes: Vec<u32> = self
            .initial_inputs
            .iter()
            .map(|&a| self.schema.attr(a).domain.size())
            .collect();
        let mut rows = Vec::with_capacity(n as usize);
        let mut assign = vec![0u32; sizes.len()];
        loop {
            rows.push(self.run(&assign)?);
            let mut done = true;
            for i in (0..assign.len()).rev() {
                assign[i] += 1;
                if assign[i] < sizes[i] {
                    done = false;
                    break;
                }
                assign[i] = 0;
            }
            if done {
                break;
            }
        }
        Ok(Relation::from_rows(self.schema.clone(), rows).expect("execution rows are valid"))
    }

    /// Materializes the provenance relation restricted to the given
    /// initial-input assignments (an *instance* of `R`, §1: "An instance
    /// of R represents the set of workflow executions that have been run").
    ///
    /// # Errors
    /// Input validation or module misbehaviour errors.
    pub fn provenance_for(&self, inputs: &[Vec<Value>]) -> Result<Relation, WorkflowError> {
        let mut rows = Vec::with_capacity(inputs.len());
        for x in inputs {
            rows.push(self.run(x)?);
        }
        Ok(Relation::from_rows(self.schema.clone(), rows).expect("execution rows are valid"))
    }

    /// Renders the workflow as Graphviz DOT: one node per module
    /// (private modules drawn as boxes, public ones as ellipses), one
    /// edge per produced-consumed attribute, labelled with the
    /// attribute name. Attributes in `hidden` are drawn dashed/red —
    /// handy for documenting a chosen secure view.
    #[must_use]
    pub fn to_dot(&self, hidden: &AttrSet) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph workflow {\n  rankdir=LR;\n");
        for (i, m) in self.modules.iter().enumerate() {
            let shape = match m.visibility {
                Visibility::Private => "box",
                Visibility::Public => "ellipse",
            };
            let _ = writeln!(out, "  m{i} [label=\"{}\", shape={shape}];", m.name);
        }
        let _ = writeln!(out, "  src [label=\"inputs\", shape=plaintext];");
        let _ = writeln!(out, "  sink [label=\"outputs\", shape=plaintext];");
        for a in (0..self.schema.len()).map(|i| AttrId(i as u32)) {
            let name = &self.schema.attr(a).name;
            let style = if hidden.contains(a) {
                ", style=dashed, color=red"
            } else {
                ""
            };
            let from = match self.producer(a) {
                Some(p) => format!("m{}", p.index()),
                None => "src".to_string(),
            };
            if self.consumers(a).is_empty() {
                if self.producer(a).is_some() {
                    let _ = writeln!(out, "  {from} -> sink [label=\"{name}\"{style}];");
                }
            } else {
                for c in self.consumers(a) {
                    let _ = writeln!(out, "  {from} -> m{} [label=\"{name}\"{style}];", c.index());
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Debug for Workflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Workflow ({} modules)", self.modules.len())?;
        for m in &self.modules {
            writeln!(
                f,
                "  {} [{:?}]: {:?} -> {:?}",
                m.name,
                m.visibility,
                self.schema.names(&m.input_set()),
                self.schema.names(&m.output_set()),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleFn;

    /// The Figure-1 workflow from the paper: m1(a1,a2)→(a3,a4,a5),
    /// m2(a3,a4)→a6, m3(a4,a5)→a7.
    fn fig1() -> Workflow {
        crate::library::fig1_workflow()
    }

    #[test]
    fn fig1_structure() {
        let w = fig1();
        assert_eq!(w.len(), 3);
        assert_eq!(w.initial_inputs().len(), 2);
        assert_eq!(
            w.schema()
                .names(&AttrSet::from_iter(w.initial_inputs().iter().copied())),
            vec!["a1", "a2"]
        );
        let fin = w.final_outputs();
        assert_eq!(
            w.schema().names(&AttrSet::from_iter(fin.into_iter())),
            vec!["a6", "a7"]
        );
        // a4 feeds m2 and m3 ⇒ γ = 2, as stated after Definition 3.
        assert_eq!(w.data_sharing_degree(), 2);
        assert!(w.is_all_private());
    }

    #[test]
    fn fig1_provenance_matches_paper_table() {
        // Figure 1(b) of the paper, rows over (a1,…,a7).
        let w = fig1();
        let r = w.provenance_relation(1 << 10).unwrap();
        assert_eq!(r.len(), 4);
        for row in [
            vec![0, 0, 0, 1, 1, 1, 0],
            vec![0, 1, 1, 1, 0, 0, 1],
            vec![1, 0, 1, 1, 0, 0, 1],
            vec![1, 1, 1, 0, 1, 1, 1],
        ] {
            assert!(r.contains(&Tuple::new(row)));
        }
        r.check_fds(&w.fds()).unwrap();
    }

    #[test]
    fn provenance_equals_join_of_standalone_relations() {
        // §4: R = R1 ⋈ R2 ⋈ … ⋈ Rn restricted to reachable executions.
        let w = fig1();
        let r = w.provenance_relation(1 << 10).unwrap();
        let rels: Vec<Relation> = w
            .modules()
            .iter()
            .map(|m| m.standalone_relation(w.schema(), 1 << 10).unwrap())
            .collect();
        let mut join = rels[0].clone();
        for r2 in &rels[1..] {
            join = sv_relation::natural_join(&join, r2).unwrap();
        }
        // The join of *total* module relations contains exactly the
        // executions (same attribute set, same rows) here because every
        // intermediate value combination in the join is consistent.
        assert_eq!(join.len(), r.len());
        for t in r.rows() {
            // Join schema may order attributes differently; compare via
            // name-indexed projection.
            let names: Vec<&str> = (0..w.schema().len())
                .map(|i| w.schema().attr(AttrId(i as u32)).name.as_str())
                .collect();
            let perm: Vec<usize> = names
                .iter()
                .map(|n| join.schema().by_name(n).unwrap().index())
                .collect();
            let reordered: Vec<Value> = (0..names.len()).map(|i| t.values()[i]).collect();
            let mut found = false;
            for jt in join.rows() {
                if perm
                    .iter()
                    .enumerate()
                    .all(|(i, &p)| jt.values()[p] == reordered[i])
                {
                    found = true;
                    break;
                }
            }
            assert!(found, "execution row {t:?} missing from join");
        }
    }

    #[test]
    fn rejects_output_clash() {
        let s = Schema::booleans(&["x", "y", "z"]);
        let m1 = Module {
            name: "p".into(),
            inputs: vec![AttrId(0)],
            outputs: vec![AttrId(2)],
            visibility: Visibility::Private,
            func: ModuleFn::closure(|v| vec![v[0]]),
        };
        let m2 = Module {
            name: "q".into(),
            inputs: vec![AttrId(1)],
            outputs: vec![AttrId(2)],
            visibility: Visibility::Private,
            func: ModuleFn::closure(|v| vec![v[0]]),
        };
        assert!(matches!(
            Workflow::new(s, vec![m1, m2]),
            Err(WorkflowError::OutputClash { .. })
        ));
    }

    #[test]
    fn rejects_cycle() {
        let s = Schema::booleans(&["x", "y"]);
        let m1 = Module {
            name: "p".into(),
            inputs: vec![AttrId(0)],
            outputs: vec![AttrId(1)],
            visibility: Visibility::Private,
            func: ModuleFn::closure(|v| vec![v[0]]),
        };
        let m2 = Module {
            name: "q".into(),
            inputs: vec![AttrId(1)],
            outputs: vec![AttrId(0)],
            visibility: Visibility::Private,
            func: ModuleFn::closure(|v| vec![v[0]]),
        };
        assert!(matches!(
            Workflow::new(s, vec![m1, m2]),
            Err(WorkflowError::Cyclic)
        ));
    }

    #[test]
    fn rejects_input_output_overlap() {
        let s = Schema::booleans(&["x"]);
        let m = Module {
            name: "p".into(),
            inputs: vec![AttrId(0)],
            outputs: vec![AttrId(0)],
            visibility: Visibility::Private,
            func: ModuleFn::closure(|v| vec![v[0]]),
        };
        assert!(matches!(
            Workflow::new(s, vec![m]),
            Err(WorkflowError::InputOutputOverlap { .. })
        ));
    }

    #[test]
    fn run_validates_inputs() {
        let w = fig1();
        assert!(matches!(
            w.run(&[0]),
            Err(WorkflowError::BadInputArity { .. })
        ));
        assert!(matches!(
            w.run(&[0, 9]),
            Err(WorkflowError::InputValueOutOfDomain { .. })
        ));
    }

    #[test]
    fn privatization_changes_visibility() {
        let w = fig1();
        let w2 = w.with_visibility(ModuleId(1), Visibility::Public).unwrap();
        assert!(!w2.is_all_private());
        assert_eq!(w2.public_modules(), vec![ModuleId(1)]);
        assert!(w.is_all_private(), "original untouched");
        assert!(w.with_visibility(ModuleId(9), Visibility::Public).is_err());
    }

    #[test]
    fn provenance_for_subset_of_inputs() {
        let w = fig1();
        let r = w.provenance_for(&[vec![0, 0], vec![1, 1]]).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn budget_enforced() {
        let w = fig1();
        assert!(matches!(
            w.provenance_relation(3),
            Err(WorkflowError::DomainTooLarge { .. })
        ));
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use crate::library::{example8_chain, fig1_workflow};

    #[test]
    fn dot_contains_modules_and_edges() {
        let w = fig1_workflow();
        let dot = w.to_dot(&AttrSet::new());
        assert!(dot.contains("m0 [label=\"m1\", shape=box]"));
        assert!(dot.contains("src -> m0 [label=\"a1\"]"));
        // a4 fans out to both m2 and m3.
        assert_eq!(dot.matches("label=\"a4\"").count(), 2);
        assert!(dot.contains("-> sink [label=\"a7\"]"));
    }

    #[test]
    fn dot_marks_hidden_attrs_and_public_shapes() {
        let w = example8_chain(1);
        let hidden = AttrSet::from_indices(&[1]); // y0
        let dot = w.to_dot(&hidden);
        assert!(dot.contains("shape=ellipse"), "public modules as ellipses");
        assert!(
            dot.contains("style=dashed, color=red"),
            "hidden edge marked"
        );
    }
}
