//! The name table: every hostname a set of logs mentions, stored once.
//!
//! A DNS row names its query and its CNAME targets by [`NameId`]; the
//! text lives here, end to end in one arena, found again through a
//! keyed hash of it. Ids are dense and count up in first-seen order, so
//! a table is append-only: an id stays valid for as long as its table
//! lives, and a consumer keyed on ids (the §8 cache replays) needs no
//! text of its own.

use std::collections::HashMap;
use std::hash::BuildHasher;

/// A name's index in the [`NameTable`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

/// Hostnames in presentation form, interned.
///
/// Names come off the wire, so the index stays on the keyed std hasher:
/// it maps the keyed hash of a name to its id, and a later name whose
/// 64-bit hash is already taken waits in `collided`.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    /// Every name's text, in id order.
    text: String,
    /// Where each name's text ends in `text`; it starts where the
    /// previous one ends.
    ends: Vec<usize>,
    index: HashMap<u64, NameId>,
    collided: Vec<NameId>,
}

impl NameTable {
    /// The id of `name`, adding it if it is new. A new name costs its
    /// bytes in the arena and a slot in the index, nothing of its own.
    pub fn intern(&mut self, name: &str) -> NameId {
        let hash = self.index.hasher().hash_one(name);
        if let Some(id) = self.find(hash, name) {
            return id;
        }
        let id = NameId(u32::try_from(self.ends.len()).expect("fewer than 2^32 names"));
        self.text.push_str(name);
        self.ends.push(self.text.len());
        if *self.index.entry(hash).or_insert(id) != id {
            self.collided.push(id);
        }
        id
    }

    /// The id of `name`, if the table holds it.
    pub fn get(&self, name: &str) -> Option<NameId> {
        self.find(self.index.hasher().hash_one(name), name)
    }

    fn find(&self, hash: u64, name: &str) -> Option<NameId> {
        let first = *self.index.get(&hash)?;
        if self.name(first) == name {
            return Some(first);
        }
        self.collided.iter().copied().find(|&id| self.name(id) == name)
    }

    /// The text of `id`.
    pub fn name(&self, id: NameId) -> &str {
        let at = id.0 as usize;
        let start = if at == 0 { 0 } else { self.ends[at - 1] };
        &self.text[start..self.ends[at]]
    }

    /// Number of names held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table holds no name.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Add every name of `other`, in its id order, and return the map
    /// from its ids to ours: `map[id.0]` is `id`'s name here.
    pub fn absorb(&mut self, other: &NameTable) -> Vec<NameId> {
        (0..other.len() as u32).map(|id| self.intern(other.name(NameId(id)))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_first_seen_order_and_stable() {
        let mut names = NameTable::default();
        assert!(names.is_empty());
        let www = names.intern("www.example.com");
        let edge = names.intern("edge.example.net");
        assert_eq!((www, edge), (NameId(0), NameId(1)));
        assert_eq!(names.intern("www.example.com"), www);
        assert_eq!((names.name(www), names.name(edge)), ("www.example.com", "edge.example.net"));
        assert_eq!(names.get("edge.example.net"), Some(edge));
        assert_eq!(names.get("example.com"), None);
        assert_eq!(names.len(), 2);
        // The root renders as "."; an empty string is a name too.
        let root = names.intern(".");
        let empty = names.intern("");
        assert_eq!((names.name(root), names.name(empty)), (".", ""));
        assert_eq!(names.get(""), Some(empty));
    }

    #[test]
    fn a_name_whose_hash_is_taken_is_still_found() {
        let mut names = NameTable::default();
        let first = names.intern("a.example");
        // Make "b.example" collide: its hash slot already holds `first`.
        let hash = names.index.hasher().hash_one("b.example");
        names.index.insert(hash, first);
        let second = names.intern("b.example");
        assert_eq!(names.collided, [second]);
        assert_eq!((names.get("a.example"), names.get("b.example")), (Some(first), Some(second)));
        assert_eq!(names.intern("b.example"), second);
        assert_eq!(names.get("c.example"), None);
    }

    #[test]
    fn absorb_maps_every_name_and_adds_only_new_ones() {
        let mut ours = NameTable::default();
        let shared = ours.intern("shared.example");
        let mut theirs = NameTable::default();
        let new = theirs.intern("new.example");
        let again = theirs.intern("shared.example");
        let map = ours.absorb(&theirs);
        assert_eq!(map[again.0 as usize], shared);
        assert_eq!(ours.name(map[new.0 as usize]), "new.example");
        assert_eq!(ours.len(), 2);
        assert!(ours.absorb(&NameTable::default()).is_empty());
    }
}
