//! The value object model, after Redis's `robj`.
//!
//! Every key maps to an [`RObj`]: a string (with the shared integer-encoding
//! fast path), a list, a set (intset- or dict-encoded, with automatic
//! conversion), a hash, or a sorted set (dict + skiplist, kept in lockstep).

use std::collections::VecDeque;

use crate::dict::Dict;
use crate::intset::IntSet;
use crate::sds::Sds;
use crate::skiplist::SkipList;

/// Max intset cardinality before a set converts to dict encoding
/// (Redis `set-max-intset-entries`).
pub const SET_MAX_INTSET_ENTRIES: usize = 512;

/// A set, in one of its two encodings.
#[derive(Debug, Clone)]
pub enum SetObj {
    /// Compact sorted-integer encoding.
    Ints(IntSet),
    /// General hash-table encoding (values are unit).
    Dict(Dict<()>),
}

impl Default for SetObj {
    fn default() -> Self {
        SetObj::Ints(IntSet::new())
    }
}

impl SetObj {
    /// Create an empty set (intset-encoded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        match self {
            SetObj::Ints(s) => s.len(),
            SetObj::Dict(d) => d.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True while intset-encoded.
    pub fn is_intset(&self) -> bool {
        matches!(self, SetObj::Ints(_))
    }

    fn convert_to_dict(&mut self) {
        if let SetObj::Ints(ints) = self {
            let mut d = Dict::new();
            for v in ints.iter() {
                d.insert(v.to_string().as_bytes(), ());
            }
            *self = SetObj::Dict(d);
        }
    }

    /// Add a member. Returns true if newly added. Converts encodings when a
    /// non-integer member arrives or the intset grows too large.
    pub fn add(&mut self, member: &[u8]) -> bool {
        match self {
            SetObj::Ints(ints) => {
                if let Some(v) = crate::sds::parse_i64(member) {
                    let added = ints.insert(v);
                    if ints.len() > SET_MAX_INTSET_ENTRIES {
                        self.convert_to_dict();
                    }
                    added
                } else {
                    self.convert_to_dict();
                    self.add(member)
                }
            }
            SetObj::Dict(d) => d.insert(member, ()).is_none(),
        }
    }

    /// Remove a member. Returns true if it was present.
    pub fn remove(&mut self, member: &[u8]) -> bool {
        match self {
            SetObj::Ints(ints) => match crate::sds::parse_i64(member) {
                Some(v) => ints.remove(v),
                None => false,
            },
            SetObj::Dict(d) => d.remove(member).is_some(),
        }
    }

    /// Membership test.
    pub fn contains(&self, member: &[u8]) -> bool {
        match self {
            SetObj::Ints(ints) => crate::sds::parse_i64(member).is_some_and(|v| ints.contains(v)),
            SetObj::Dict(d) => d.contains(member),
        }
    }

    /// All members as owned byte strings (intset members are rendered as
    /// decimal, as Redis does).
    pub fn members(&self) -> Vec<Vec<u8>> {
        match self {
            SetObj::Ints(ints) => ints.iter().map(|v| v.to_string().into_bytes()).collect(),
            SetObj::Dict(d) => d.iter().map(|(k, _)| k.to_vec()).collect(),
        }
    }
}

/// A sorted set: member→score dict plus a score-ordered skiplist, mutated
/// in lockstep exactly as Redis's zset does.
#[derive(Debug, Clone)]
pub struct ZSet {
    dict: Dict<f64>,
    list: SkipList,
}

impl ZSet {
    /// Create an empty sorted set. `seed` fixes skiplist level choices.
    pub fn new(seed: u64) -> Self {
        ZSet {
            dict: Dict::new(),
            list: SkipList::new(seed),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// Insert or update a member's score. Returns true if newly added.
    pub fn add(&mut self, member: &[u8], score: f64) -> bool {
        if let Some(&old) = self.dict.get(member) {
            if old != score {
                // Same-member score change: remove + reinsert in the list.
                assert!(self.list.delete(old, member));
                self.list.insert(score, Sds::from_bytes(member));
                self.dict.insert(member, score);
            }
            false
        } else {
            self.dict.insert(member, score);
            self.list.insert(score, Sds::from_bytes(member));
            true
        }
    }

    /// Remove a member. Returns true if it was present.
    pub fn remove(&mut self, member: &[u8]) -> bool {
        match self.dict.remove(member) {
            Some(score) => {
                assert!(self.list.delete(score, member));
                true
            }
            None => false,
        }
    }

    /// A member's score.
    pub fn score(&self, member: &[u8]) -> Option<f64> {
        self.dict.get(member).copied()
    }

    /// A member's 0-based rank by ascending `(score, member)`.
    pub fn rank(&self, member: &[u8]) -> Option<usize> {
        let score = self.score(member)?;
        self.list.rank(score, member)
    }

    /// Members in rank range `[start, stop]` (inclusive, clamped).
    pub fn range(&self, start: usize, stop: usize) -> Vec<(Vec<u8>, f64)> {
        let mut out = Vec::new();
        let mut r = start;
        while r <= stop {
            match self.list.by_rank(r) {
                Some((score, member)) => out.push((member.as_bytes().to_vec(), score)),
                None => break,
            }
            r += 1;
        }
        out
    }

    /// One cursor step of a guaranteed-coverage member scan (`ZSCAN`).
    pub fn scan(&self, cursor: u64, mut emit: impl FnMut(&[u8], f64)) -> u64 {
        self.dict.scan(cursor, |m, &score| emit(m, score))
    }

    /// Members with scores in `[min, max]`.
    pub fn range_by_score(&self, min: f64, max: f64) -> Vec<(Vec<u8>, f64)> {
        self.list
            .range_by_score(min, max)
            .into_iter()
            .map(|(s, m)| (m.as_bytes().to_vec(), s))
            .collect()
    }
}

/// A value stored at a key.
///
/// Like Redis's `robj`, the object is a small header: the two string forms
/// that `GET`/`SET` touch are inline, the collections sit behind a pointer.
/// Every keyspace entry and every bucket slot is sized by this enum, so an
/// inline `ZSet` (a dict and a skiplist header) would make each string key
/// pay for a sorted set's layout — 168 bytes instead of 24
/// (`robj_stays_24_bytes`).
#[derive(Debug, Clone)]
pub enum RObj {
    /// A raw byte string.
    Str(Sds),
    /// An integer-encoded string (Redis `OBJ_ENCODING_INT`).
    Int(i64),
    /// A list (deque of strings).
    List(Box<VecDeque<Sds>>),
    /// A set.
    Set(Box<SetObj>),
    /// A field→value hash.
    Hash(Box<Dict<Sds>>),
    /// A sorted set.
    ZSet(Box<ZSet>),
}

impl RObj {
    /// Build a string object, using the integer encoding when possible.
    ///
    /// The integer test reads the borrowed bytes; a value that stays a
    /// string is copied exactly once, into the object the keyspace keeps.
    pub fn string(bytes: &[u8]) -> RObj {
        match crate::sds::parse_i64(bytes) {
            Some(v) => RObj::Int(v),
            None => RObj::Str(Sds::from_bytes(bytes)),
        }
    }

    /// Overwrite this object with the string `bytes`, encoded as
    /// [`RObj::string`] would. A raw string's buffer is rewritten in place
    /// when [`Sds::can_reuse_for`] allows it; anything else is replaced by
    /// an exact-size copy, so the keyspace never pins more than twice a
    /// value's bytes.
    pub fn assign_string(&mut self, bytes: &[u8]) {
        match (self, crate::sds::parse_i64(bytes)) {
            (RObj::Str(s), None) if s.can_reuse_for(bytes.len()) => s.overwrite(bytes),
            (this, Some(v)) => *this = RObj::Int(v),
            (this, None) => *this = RObj::Str(Sds::from_bytes(bytes)),
        }
    }

    /// The `TYPE` command's name for this object.
    pub fn type_name(&self) -> &'static str {
        match self {
            RObj::Str(_) | RObj::Int(_) => "string",
            RObj::List(_) => "list",
            RObj::Set(_) => "set",
            RObj::Hash(_) => "hash",
            RObj::ZSet(_) => "zset",
        }
    }

    /// True for either string representation.
    pub fn is_string(&self) -> bool {
        matches!(self, RObj::Str(_) | RObj::Int(_))
    }

    /// Render a string-typed object as bytes (panics on other types;
    /// command code checks types first, as Redis does with `checkType`).
    pub fn as_string_bytes(&self) -> Vec<u8> {
        match self {
            RObj::Str(s) => s.as_bytes().to_vec(),
            RObj::Int(v) => v.to_string().into_bytes(),
            other => panic!("as_string_bytes on {}", other.type_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_objects_integer_encode() {
        assert!(matches!(RObj::string(b"12345"), RObj::Int(12345)));
        assert!(matches!(RObj::string(b"hello"), RObj::Str(_)));
        assert!(matches!(RObj::string(b"012"), RObj::Str(_)));
        assert_eq!(RObj::string(b"99").as_string_bytes(), b"99");
        assert_eq!(RObj::string(b"abc").as_string_bytes(), b"abc");
    }

    #[test]
    fn string_encoding_is_decided_on_the_borrowed_bytes() {
        assert!(matches!(RObj::string(b"42"), RObj::Int(42)));
        assert!(matches!(RObj::string(b"-7"), RObj::Int(-7)));
        assert!(matches!(RObj::string(b"0"), RObj::Int(0)));
        // Non-canonical decimals round-trip byte for byte only as strings.
        for raw in [&b"-0"[..], b"007", b"", b"-", b"4 2"] {
            assert!(matches!(RObj::string(raw), RObj::Str(_)), "{raw:?}");
            assert_eq!(RObj::string(raw).as_string_bytes(), raw);
        }
        // 21 digits overflow i64: a string, not a truncated integer.
        let wide = b"123456789012345678901";
        assert!(matches!(RObj::string(wide), RObj::Str(_)));
        assert!(matches!(
            RObj::string(b"9223372036854775807"),
            RObj::Int(i64::MAX)
        ));
        assert!(matches!(RObj::string(b"9223372036854775808"), RObj::Str(_)));
    }

    #[test]
    fn robj_stays_24_bytes() {
        // Every keyspace entry and bucket slot is sized by `RObj`: a
        // collection inline would make every string key pay for its layout.
        assert_eq!(std::mem::size_of::<RObj>(), 24);
    }

    #[test]
    fn assign_string_encodes_like_string_and_reuses_only_a_close_fit() {
        let mut o = RObj::string(&[b'a'; 100]);
        let ptr = |o: &RObj| match o {
            RObj::Str(s) => s.as_ptr(),
            other => panic!("{other:?}"),
        };
        let before = ptr(&o);
        o.assign_string(&[b'b'; 60]);
        assert_eq!(o.as_string_bytes(), [b'b'; 60]);
        assert_eq!(ptr(&o), before, "60 of 100 bytes: rewritten in place");
        o.assign_string(b"tiny");
        assert_eq!(o.as_string_bytes(), b"tiny");
        assert!(
            matches!(&o, RObj::Str(s) if s.capacity() == 4),
            "exact-size copy"
        );
        o.assign_string(b"-12");
        assert!(matches!(o, RObj::Int(-12)));
        o.assign_string(b"007");
        assert!(matches!(&o, RObj::Str(s) if s.as_bytes() == b"007"));
        let mut list = RObj::List(Box::default());
        list.assign_string(b"v");
        assert!(matches!(&list, RObj::Str(s) if s.as_bytes() == b"v"));
    }

    #[test]
    fn set_converts_on_non_integer_member() {
        let mut s = SetObj::new();
        assert!(s.add(b"1"));
        assert!(s.add(b"2"));
        assert!(s.is_intset());
        assert!(s.add(b"apple"));
        assert!(!s.is_intset());
        // All members survive the conversion.
        assert!(s.contains(b"1"));
        assert!(s.contains(b"2"));
        assert!(s.contains(b"apple"));
        assert!(!s.add(b"1"), "duplicate after conversion");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn set_converts_on_size_threshold() {
        let mut s = SetObj::new();
        for i in 0..=SET_MAX_INTSET_ENTRIES as i64 {
            s.add(i.to_string().as_bytes());
        }
        assert!(!s.is_intset());
        assert_eq!(s.len(), SET_MAX_INTSET_ENTRIES + 1);
        assert!(s.contains(b"0"));
        assert!(s.contains(b"512"));
    }

    #[test]
    fn set_remove_both_encodings() {
        let mut s = SetObj::new();
        s.add(b"7");
        assert!(s.remove(b"7"));
        assert!(!s.remove(b"7"));
        assert!(!s.remove(b"pear"), "non-integer can't be in an intset");
        s.add(b"pear");
        assert!(s.remove(b"pear"));
    }

    #[test]
    fn zset_add_update_remove() {
        let mut z = ZSet::new(5);
        assert!(z.add(b"a", 1.0));
        assert!(z.add(b"b", 2.0));
        assert!(!z.add(b"a", 3.0), "update is not an add");
        assert_eq!(z.score(b"a"), Some(3.0));
        assert_eq!(z.rank(b"b"), Some(0));
        assert_eq!(z.rank(b"a"), Some(1));
        assert!(z.remove(b"a"));
        assert!(!z.remove(b"a"));
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn zset_range_queries() {
        let mut z = ZSet::new(5);
        for (m, s) in [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)] {
            z.add(m.as_bytes(), s);
        }
        let r = z.range(1, 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, b"b");
        assert_eq!(r[1].0, b"c");
        let r = z.range_by_score(2.0, 3.5);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, b"b");
        // Out-of-range start yields empty.
        assert!(z.range(10, 20).is_empty());
    }

    #[test]
    fn type_names() {
        assert_eq!(RObj::string(b"x").type_name(), "string");
        assert_eq!(RObj::Int(1).type_name(), "string");
        assert_eq!(RObj::List(Box::default()).type_name(), "list");
        assert_eq!(RObj::Set(Box::default()).type_name(), "set");
        assert_eq!(RObj::Hash(Box::default()).type_name(), "hash");
        assert_eq!(RObj::ZSet(Box::new(ZSet::new(1))).type_name(), "zset");
    }
}
