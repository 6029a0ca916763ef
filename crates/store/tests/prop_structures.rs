//! Property-based tests: the from-scratch data structures must agree with
//! std-library models under arbitrary operation sequences.

// Generated offsets are tiny by construction; the casts cannot truncate.
#![allow(clippy::cast_possible_truncation)]

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeMap, BTreeSet};

use skv_store::backlog::Backlog;
use skv_store::dict::Dict;
use skv_store::intset::IntSet;
use skv_store::sds::Sds;
use skv_store::skiplist::SkipList;

// ---------------------------------------------------------------------------
// Dict ≡ BTreeMap
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum DictOp {
    Insert(Vec<u8>, u32),
    Remove(Vec<u8>),
    Get(Vec<u8>),
    GetMut(Vec<u8>, u32),
    RehashStep,
}

fn dict_key() -> impl Strategy<Value = Vec<u8>> {
    // Small key space to force collisions and replacements.
    prop::collection::vec(0u8..8, 0..3)
}

fn dict_op() -> impl Strategy<Value = DictOp> {
    prop_oneof![
        (dict_key(), any::<u32>()).prop_map(|(k, v)| DictOp::Insert(k, v)),
        dict_key().prop_map(DictOp::Remove),
        dict_key().prop_map(DictOp::Get),
        (dict_key(), any::<u32>()).prop_map(|(k, v)| DictOp::GetMut(k, v)),
        Just(DictOp::RehashStep),
    ]
}

/// Apply one op to the dict and the model, comparing what each returns.
fn apply_dict_op(
    dict: &mut Dict<u32>,
    model: &mut BTreeMap<Vec<u8>, u32>,
    op: DictOp,
) -> Result<(), TestCaseError> {
    match op {
        DictOp::Insert(k, v) => prop_assert_eq!(dict.insert(&k, v), model.insert(k, v)),
        DictOp::Remove(k) => prop_assert_eq!(dict.remove(&k), model.remove(&k)),
        DictOp::Get(k) => {
            prop_assert_eq!(dict.get(&k), model.get(&k));
            prop_assert_eq!(dict.contains(&k), model.contains_key(&k));
        }
        DictOp::GetMut(k, v) => {
            let (got, want) = (dict.get_mut(&k), model.get_mut(&k));
            prop_assert_eq!(got.as_deref(), want.as_deref());
            if let (Some(got), Some(want)) = (got, want) {
                *got = v;
                *want = v;
            }
        }
        DictOp::RehashStep => dict.rehash_step(2),
    }
    prop_assert_eq!(dict.len(), model.len());
    Ok(())
}

/// The dict holds exactly the model's entries.
fn assert_same_entries(
    dict: &Dict<u32>,
    model: &BTreeMap<Vec<u8>, u32>,
) -> Result<(), TestCaseError> {
    let mut seen: Vec<(Vec<u8>, u32)> = dict.iter().map(|(k, v)| (k.to_vec(), *v)).collect();
    seen.sort_unstable();
    let expect: Vec<(Vec<u8>, u32)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
    prop_assert_eq!(seen, expect);
    Ok(())
}

proptest! {
    #[test]
    fn dict_matches_btreemap(ops in prop::collection::vec(dict_op(), 0..400)) {
        let mut dict: Dict<u32> = Dict::new();
        let mut model: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
        for op in ops {
            apply_dict_op(&mut dict, &mut model, op)?;
        }
        assert_same_entries(&dict, &model)?;
    }

    /// The same ops interleaved with a fill to 600 keys and a drain back to
    /// a handful, so upserts, lookups and removes run against growing,
    /// shrinking and mid-rehash tables.
    #[test]
    fn dict_matches_btreemap_across_resizes(
        ops in prop::collection::vec(dict_op(), 1200..1201),
        spare in 0usize..6,
    ) {
        let mut dict: Dict<u32> = Dict::new();
        let mut model: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
        let mut ops = ops.into_iter();
        let wide = |i: u32| format!("wide:{i}").into_bytes();
        let (mut grew, mut shrank) = (false, false);
        for i in 0..600u32 {
            apply_dict_op(&mut dict, &mut model, DictOp::Insert(wide(i), i))?;
            grew |= dict.is_rehashing();
            apply_dict_op(&mut dict, &mut model, ops.next().expect("1200 ops"))?;
        }
        assert_same_entries(&dict, &model)?;
        let peak = dict.capacity();
        for i in spare as u32..600 {
            apply_dict_op(&mut dict, &mut model, DictOp::Remove(wide(i)))?;
            shrank |= dict.is_rehashing() && dict.len() < 60;
            apply_dict_op(&mut dict, &mut model, ops.next().expect("1200 ops"))?;
            if i % 64 == 0 {
                assert_same_entries(&dict, &model)?;
            }
        }
        assert_same_entries(&dict, &model)?;
        prop_assert!(grew && shrank, "both resize directions must be exercised");
        prop_assert!(peak >= 512, "600 keys need at least 512 buckets, had {}", peak);
        // Upserts over surviving and fresh keys while the shrink is in flight.
        for i in 0..40u32 {
            apply_dict_op(&mut dict, &mut model, DictOp::Insert(wide(i), i + 1))?;
        }
        assert_same_entries(&dict, &model)?;
    }
}

// ---------------------------------------------------------------------------
// SkipList ≡ BTreeMap<(score-bits, member)>
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum SlOp {
    Insert(u8, String),
    Delete(u8, String),
}

fn sl_op() -> impl Strategy<Value = SlOp> {
    let member = prop::sample::select(vec!["a", "b", "c", "d", "e", "f", "g", "h"]);
    prop_oneof![
        (0u8..16, member.clone()).prop_map(|(s, m)| SlOp::Insert(s, m.to_string())),
        (0u8..16, member).prop_map(|(s, m)| SlOp::Delete(s, m.to_string())),
    ]
}

proptest! {
    #[test]
    fn skiplist_matches_btree(ops in prop::collection::vec(sl_op(), 0..300), seed in any::<u64>()) {
        let mut sl = SkipList::new(seed);
        // Model key: (score as integer, member). Duplicate (score, member)
        // pairs are not inserted (matching ZSet usage).
        let mut model: BTreeSet<(u8, String)> = BTreeSet::new();
        for op in ops {
            match op {
                SlOp::Insert(s, m) => {
                    if model.insert((s, m.clone())) {
                        sl.insert(s as f64, Sds::from(m.as_str()));
                    }
                }
                SlOp::Delete(s, m) => {
                    let was = model.remove(&(s, m.clone()));
                    prop_assert_eq!(sl.delete(s as f64, m.as_bytes()), was);
                }
            }
        }
        sl.check_invariants();
        prop_assert_eq!(sl.len(), model.len());
        // Full in-order agreement, plus rank agreement.
        for (rank, (s, m)) in model.iter().enumerate() {
            let (score, member) = sl.by_rank(rank).expect("rank in range");
            prop_assert_eq!(score, *s as f64);
            prop_assert_eq!(member.as_bytes(), m.as_bytes());
            prop_assert_eq!(sl.rank(*s as f64, m.as_bytes()), Some(rank));
        }
    }
}

// ---------------------------------------------------------------------------
// IntSet ≡ BTreeSet<i64>
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn intset_matches_btreeset(ops in prop::collection::vec((any::<bool>(), any::<i64>()), 0..300)) {
        let mut set = IntSet::new();
        let mut model: BTreeSet<i64> = BTreeSet::new();
        for (insert, v) in ops {
            if insert {
                prop_assert_eq!(set.insert(v), model.insert(v));
            } else {
                prop_assert_eq!(set.remove(v), model.remove(&v));
            }
        }
        prop_assert_eq!(set.len(), model.len());
        let got: Vec<i64> = set.iter().collect();
        let expect: Vec<i64> = model.iter().copied().collect();
        prop_assert_eq!(got, expect, "iteration must be sorted and complete");
    }
}

// ---------------------------------------------------------------------------
// Backlog ≡ unbounded log suffix
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn backlog_serves_exact_suffixes(
        capacity in 1usize..64,
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 0..50),
    ) {
        let mut backlog = Backlog::new(capacity);
        let mut log: Vec<u8> = Vec::new();
        for chunk in chunks {
            backlog.feed(&chunk);
            log.extend_from_slice(&chunk);
        }
        prop_assert_eq!(backlog.offset(), log.len() as u64);
        let first = backlog.first_available_offset();
        for from in 0..=log.len() as u64 {
            match backlog.range_from(from) {
                Some(bytes) => {
                    prop_assert!(from >= first);
                    prop_assert_eq!(&bytes[..], &log[from as usize..]);
                }
                None => prop_assert!(from < first),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sds ranges ≡ slice arithmetic
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn sds_get_range_matches_model(
        data in prop::collection::vec(any::<u8>(), 0..40),
        start in -50i64..50,
        end in -50i64..50,
    ) {
        let s = Sds::from_bytes(&data);
        let got = s.get_range(start, end);
        // Model: resolve negatives, clamp, inclusive slice.
        let len = data.len() as i64;
        let mut a = if start < 0 { len + start } else { start };
        let mut b = if end < 0 { len + end } else { end };
        a = a.max(0);
        b = b.min(len - 1);
        let expect: &[u8] = if len == 0 || a > b {
            &[]
        } else {
            &data[a as usize..=b as usize]
        };
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------------
// Dict random_entry stays within live entries
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn dict_random_entry_is_live(keys in prop::collection::btree_set(prop::collection::vec(any::<u8>(), 1..4), 1..40), draws in any::<u64>()) {
        let mut dict: Dict<u8> = Dict::new();
        let model: BTreeMap<Vec<u8>, u8> =
            keys.into_iter().map(|k| (k, 7)).collect();
        for (k, v) in &model {
            dict.insert(k, *v);
        }
        let mut state = draws | 1;
        let (k, v) = dict
            .random_entry(|n| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 16) % n.max(1)
            })
            .expect("non-empty");
        prop_assert_eq!(model.get(k), Some(v));
    }
}
