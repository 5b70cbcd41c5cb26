//! Index (de)serialization.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [magic: 8 bytes "IPEIDX02"]
//! [class_count: u32] [rel_count: u32]
//! [goal_count: u32]
//! goal_count × { [name_len: u32][name]
//!                [conn_mask: n × u16]
//!                [semlen_by_first: n*5 × u16]
//!                n × { [out_len: u32][out_len × u32 rel ids] } }
//! ```
//!
//! Names are serialized as strings (interned symbols are not stable across
//! schema reloads) and re-resolved on load; goals are written in name
//! order so the bytes are deterministic. `IPEIDX01`, the layout before
//! this one, also carried two `n × n` class-pair matrices; its magic no
//! longer matches, so an old sidecar is rebuilt. Any mismatch against the
//! schema — wrong counts, more goals than the bytes can hold, unknown
//! name, out-edge lists whose lengths differ from the schema's — makes
//! [`from_bytes`] return `None`, which callers treat as "rebuild".
//! Integrity (checksums, generation pinning) is the sidecar layer's job,
//! not this format's.

use crate::goal::{out_offsets, GoalTable};
use crate::IndexedSchema;
use ipe_graph::EdgeId;
use ipe_schema::{RelId, Schema, Symbol};
use std::collections::HashMap;
use std::sync::Arc;

/// Magic bytes opening every serialized index.
pub const INDEX_MAGIC: &[u8; 8] = b"IPEIDX02";

pub(crate) fn to_bytes(index: &IndexedSchema, schema: &Schema) -> Vec<u8> {
    let n = index.class_count();
    let goals = index.goals.read().expect("index poisoned");
    let mut named: Vec<(String, Arc<GoalTable>)> = goals
        .iter()
        .map(|(&s, t)| (schema.name(s).to_owned(), t.clone()))
        .collect();
    drop(goals);
    named.sort_by(|a, b| a.0.cmp(&b.0));

    let mut out = Vec::new();
    out.extend_from_slice(INDEX_MAGIC);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&(index.rel_count() as u32).to_le_bytes());
    out.extend_from_slice(&(named.len() as u32).to_le_bytes());
    for (name, table) in named {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        let (conn_mask, semlen_by_first) = table.parts();
        for &m in conn_mask {
            out.extend_from_slice(&m.to_le_bytes());
        }
        for row in semlen_by_first {
            for &d in row {
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
        for class in schema.classes() {
            let rels = table.ordered_out(class);
            out.extend_from_slice(&(rels.len() as u32).to_le_bytes());
            for &r in rels {
                out.extend_from_slice(&(r.index() as u32).to_le_bytes());
            }
        }
    }
    out
}

pub(crate) fn from_bytes(bytes: &[u8], schema: &Schema) -> Option<IndexedSchema> {
    let mut r = Reader { bytes, at: 0 };
    if r.take(INDEX_MAGIC.len())? != INDEX_MAGIC {
        return None;
    }
    let n = r.u32()? as usize;
    let rel_count = r.u32()? as usize;
    if n != schema.class_count() || rel_count != schema.rel_count() {
        return None;
    }
    let goal_count = r.u32()? as usize;
    // Every goal record holds at least its name length, its two per-class
    // tables and one out-edge count per class; a count the remaining bytes
    // cannot hold is rejected before anything is sized from it.
    let min_record = 4 + n * (2 + 10 + 4);
    if goal_count > r.remaining() / min_record {
        return None;
    }
    let offsets = out_offsets(schema);
    let mut goals: HashMap<Symbol, Arc<GoalTable>> = HashMap::with_capacity(goal_count);
    for _ in 0..goal_count {
        let name_len = r.u32()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?).ok()?;
        let symbol = schema.symbol(name)?;
        let conn_mask = r.u16s(n)?;
        let flat = r.u16s(n * 5)?;
        let semlen_by_first: Vec<[u16; 5]> = flat
            .chunks_exact(5)
            .map(|c| [c[0], c[1], c[2], c[3], c[4]])
            .collect();
        let mut ordered_out: Vec<RelId> = Vec::with_capacity(rel_count);
        for class in schema.classes() {
            let len = r.u32()? as usize;
            if len != schema.graph().out_edge_ids(class.0).len() {
                return None;
            }
            for _ in 0..len {
                let id = r.u32()? as usize;
                if id >= rel_count {
                    return None;
                }
                ordered_out.push(RelId(EdgeId(id as u32)));
            }
        }
        goals.insert(
            symbol,
            Arc::new(GoalTable::from_parts(
                symbol,
                conn_mask,
                semlen_by_first,
                ordered_out,
                offsets.clone(),
            )),
        );
    }
    if !r.done() {
        return None;
    }
    Some(IndexedSchema::from_parts(schema, offsets, goals))
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(len)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u16s(&mut self, count: usize) -> Option<Vec<u16>> {
        let raw = self.take(count.checked_mul(2)?)?;
        Some(
            raw.chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect(),
        )
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn done(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexMode;
    use ipe_schema::fixtures;

    #[test]
    fn round_trips_with_goal_tables() {
        let schema = fixtures::university();
        let index = IndexedSchema::build(&schema, IndexMode::On);
        let bytes = index.to_bytes(&schema);
        let back = IndexedSchema::from_bytes(&bytes, &schema).expect("valid bytes");
        assert_eq!(back.goal_count(), index.goal_count());
        let name = schema.symbol("name").unwrap();
        let a = index.goal_if_built(name).unwrap();
        let b = back.goal_if_built(name).unwrap();
        assert_eq!(*a, *b);
    }

    #[test]
    fn serialization_is_deterministic() {
        let schema = fixtures::university();
        let a = IndexedSchema::build(&schema, IndexMode::On).to_bytes(&schema);
        let b = IndexedSchema::build(&schema, IndexMode::On).to_bytes(&schema);
        assert_eq!(a, b);
    }

    #[test]
    fn mismatched_schema_is_rejected() {
        let uni = fixtures::university();
        let asm = fixtures::assembly();
        let bytes = IndexedSchema::build(&uni, IndexMode::On).to_bytes(&uni);
        assert!(IndexedSchema::from_bytes(&bytes, &asm).is_none());
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let schema = fixtures::university();
        let bytes = IndexedSchema::build(&schema, IndexMode::On).to_bytes(&schema);
        for cut in [0, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(IndexedSchema::from_bytes(&bytes[..cut], &schema).is_none());
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(IndexedSchema::from_bytes(&trailing, &schema).is_none());
        let mut bad_magic = bytes;
        bad_magic[0] ^= 0xFF;
        assert!(IndexedSchema::from_bytes(&bad_magic, &schema).is_none());
    }

    /// Patches the goal count of a serialized index (it follows the magic
    /// and the two schema counts).
    fn with_goal_count(mut bytes: Vec<u8>, count: u32) -> Vec<u8> {
        bytes[16..20].copy_from_slice(&count.to_le_bytes());
        bytes
    }

    #[test]
    fn goal_count_beyond_the_payload_is_rejected() {
        let schema = fixtures::university();
        let bytes = IndexedSchema::build(&schema, IndexMode::On).to_bytes(&schema);
        for count in [u32::MAX, u32::MAX / 2, 1 << 20] {
            let patched = with_goal_count(bytes.clone(), count);
            assert!(IndexedSchema::from_bytes(&patched, &schema).is_none());
        }
    }

    /// An `IPEIDX01` index: the current goal records behind the old magic
    /// and the old layout's two `n × n` `u16` pair matrices, here all
    /// `0xFFFF` (the old "no walk" sentinel).
    fn old_layout(bytes: &[u8], n: usize) -> Vec<u8> {
        let mut old = b"IPEIDX01".to_vec();
        old.extend_from_slice(&bytes[8..16]);
        old.extend(vec![0xFF; 2 * n * n * 2]);
        old.extend_from_slice(&bytes[16..]);
        old
    }

    #[test]
    fn old_layout_payload_is_rejected() {
        let schema = fixtures::university();
        let bytes = IndexedSchema::build(&schema, IndexMode::On).to_bytes(&schema);
        let old = old_layout(&bytes, schema.class_count());
        assert!(IndexedSchema::from_bytes(&old, &schema).is_none());
        // Behind the current magic, the start of the pair matrices reads as
        // a goal count of `u32::MAX`, which the bound rejects.
        let mut relabelled = old;
        relabelled[..8].copy_from_slice(INDEX_MAGIC);
        assert!(IndexedSchema::from_bytes(&relabelled, &schema).is_none());
    }
}
