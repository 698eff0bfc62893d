//! Retained **sort-based pair-pass reference** for the Lemma-4 kernel —
//! the pass `InternedRelation::min_group_distinct` ran before the
//! counting pair pass replaced it, kept so `e18_serving_throughput` can
//! measure the kernel's pair pass (now a stamp scan over a key's cached
//! buckets, pair marking or the counting sort) against the exact code
//! path it replaced
//! (`pair_pass/{sort_reference,counting}`).
//!
//! It reads only the public [`GroupIndex`] per-row ids (`row_group()`,
//! an iterator of `u32` over ids the kernel stores as `u16` or `u32`,
//! derived once from a bucketed key grouping's buckets): each row's
//! `(key group, probe group)` pair becomes one `u64` code, the codes are
//! sorted and deduplicated — `O(rows log rows)` per pass — and the
//! shortest run of codes sharing a key group is the answer.

use sv_relation::GroupIndex;

/// Over the groups of `kg`, the minimum number of distinct `pg` groups
/// among their rows, or `usize::MAX` on an empty relation, computed by
/// sorting the pair codes in `scratch`. `kg` and `pg` must group the
/// same relation.
#[must_use]
pub fn min_group_distinct(kg: &GroupIndex, pg: &GroupIndex, scratch: &mut Vec<u64>) -> usize {
    // A relation with rows has a group.
    if kg.n_groups() == 0 {
        return usize::MAX;
    }
    let pn = u64::from(pg.n_groups());
    scratch.clear();
    scratch.extend(
        kg.row_group()
            .zip(pg.row_group())
            .map(|(k, p)| u64::from(k) * pn + u64::from(p)),
    );
    scratch.sort_unstable();
    scratch.dedup();
    let mut min = usize::MAX;
    let mut cur_key = scratch[0] / pn;
    let mut count = 0usize;
    for &code in scratch.iter() {
        let k = code / pn;
        if k == cur_key {
            count += 1;
        } else {
            min = min.min(count);
            cur_key = k;
            count = 1;
        }
    }
    min.min(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_core::StandaloneModule;
    use sv_relation::{AttrSet, InternedRelation, Relation, Schema};
    use sv_workflow::{library, ModuleId};

    #[test]
    fn sort_reference_agrees_with_the_counting_kernel() {
        let wf = library::one_one_chain(1, 4);
        let m = StandaloneModule::from_workflow_module(&wf, ModuleId(0), 1 << 21).unwrap();
        let ir = m.kernel();
        let mut scratch = Vec::new();
        for key in 0u64..(1 << m.k()) {
            for probe in (0u64..(1 << m.k())).step_by(7) {
                let (ks, ps) = (AttrSet::from_word(key), AttrSet::from_word(probe));
                let (kg, pg) = (ir.group_index(&ks), ir.group_index(&ps));
                assert_eq!(
                    min_group_distinct(&kg, &pg, &mut scratch),
                    ir.min_group_distinct(&ks, &ps),
                    "{key:#b}/{probe:#b}"
                );
            }
        }
    }

    #[test]
    fn empty_relation_answers_usize_max() {
        let ir = InternedRelation::from_relation(&Relation::empty(Schema::booleans(&["a", "b"])));
        let kg = ir.group_index(&AttrSet::from_word(0b01));
        let pg = ir.group_index(&AttrSet::from_word(0b10));
        assert_eq!(min_group_distinct(&kg, &pg, &mut Vec::new()), usize::MAX);
    }
}
