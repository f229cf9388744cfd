//! The benchmark's own model of a keyed integer table, the seeded
//! changes it applies to it, and the helpers that apply the same changes
//! to a staging table and compare the two by multiset hash.

use crate::rng::{row_hash, Rng};
use orpheus_core::{OrpheusDb, Vid};
use relstore::{Column, DataType, Row, RowId, Schema, Value};
use std::collections::{HashMap, HashSet};

/// A table of `k` (the primary key) plus `width` integer columns `a1…`,
/// with an order-independent hash of its rows kept up to date.
#[derive(Debug, Clone)]
pub struct Model {
    width: usize,
    /// Exclusive upper bound of generated values.
    range: u64,
    keys: Vec<i64>,
    rows: HashMap<i64, Vec<i64>>,
    hash: u64,
    next_key: i64,
}

/// One change to one row.
pub enum Edit {
    Update(i64, Vec<i64>),
    Insert(i64, Vec<i64>),
    Delete(i64),
}

fn hash_of(k: i64, v: &[i64]) -> u64 {
    row_hash(std::iter::once(k).chain(v.iter().copied()))
}

fn row_of(k: i64, v: &[i64]) -> Row {
    std::iter::once(k)
        .chain(v.iter().copied())
        .map(Value::Int64)
        .collect()
}

impl Model {
    /// `n` rows with keys `0..n` and values uniform in `0..range`.
    pub fn generate(rng: &mut Rng, n: usize, width: usize, range: u64) -> Model {
        let mut m = Model {
            width,
            range,
            keys: Vec::with_capacity(n),
            rows: HashMap::with_capacity(n),
            hash: 0,
            next_key: n as i64,
        };
        for k in 0..n as i64 {
            let v = m.values(rng);
            m.put(k, v);
        }
        m
    }

    fn values(&self, rng: &mut Rng) -> Vec<i64> {
        (0..self.width).map(|_| rng.value(self.range)).collect()
    }

    fn put(&mut self, k: i64, v: Vec<i64>) {
        self.hash = self.hash.wrapping_add(hash_of(k, &v));
        if let Some(old) = self.rows.insert(k, v) {
            self.hash = self.hash.wrapping_sub(hash_of(k, &old));
        } else {
            self.keys.push(k);
        }
    }

    /// Multiset hash of the rows.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Keys, ascending.
    pub fn sorted_keys(&self) -> Vec<i64> {
        let mut keys = self.keys.clone();
        keys.sort_unstable();
        keys
    }

    /// Values of column `a<col>` (1-based), ascending.
    pub fn sorted_column(&self, col: usize) -> Vec<i64> {
        let mut vals: Vec<i64> = self.rows.values().map(|v| v[col - 1]).collect();
        vals.sort_unstable();
        vals
    }

    /// The rows as engine rows, in key order of creation.
    pub fn rows(&self) -> Vec<Row> {
        self.keys
            .iter()
            .map(|k| row_of(*k, &self.rows[k]))
            .collect()
    }

    /// The table's schema: `k` then `a1…a<width>`, all integers.
    pub fn schema(&self) -> Schema {
        Schema::new(
            std::iter::once("k".to_owned())
                .chain((1..=self.width).map(|i| format!("a{i}")))
                .map(|n| Column::new(&n, DataType::Int64))
                .collect(),
        )
    }

    /// A seeded change of about `n` rows: 60% updates, 20% inserts, 20%
    /// deletes, each key touched at most once. Applied to the model.
    pub fn change(&mut self, rng: &mut Rng, n: usize) -> Vec<Edit> {
        let mut touched = HashSet::new();
        let mut edits = Vec::with_capacity(n);
        for _ in 0..n {
            let v = self.values(rng);
            let pick = rng.below(10);
            if pick < 2 {
                let k = self.next_key;
                self.next_key += 1;
                touched.insert(k);
                self.put(k, v.clone());
                edits.push(Edit::Insert(k, v));
                continue;
            }
            let idx = rng.below(self.keys.len() as u64) as usize;
            let k = self.keys[idx];
            if !touched.insert(k) {
                continue;
            }
            if pick < 8 {
                self.put(k, v.clone());
                edits.push(Edit::Update(k, v));
            } else {
                self.keys.swap_remove(idx);
                let old = self.rows.remove(&k).expect("model keys and rows agree");
                self.hash = self.hash.wrapping_sub(hash_of(k, &old));
                edits.push(Edit::Delete(k));
            }
        }
        edits
    }
}

fn ints(row: &[Value]) -> impl Iterator<Item = i64> + '_ {
    row.iter().map(|v| v.as_i64().unwrap_or(i64::MIN))
}

/// Multiset hash of a staging table's rows and the row id of each key.
pub fn staging_hash(
    db: &OrpheusDb,
    table: &str,
) -> orpheus_core::Result<(u64, HashMap<i64, RowId>)> {
    let t = db.staging_table(table)?;
    let mut hash = 0u64;
    let mut ids = HashMap::new();
    for (id, row) in t.iter() {
        hash = hash.wrapping_add(row_hash(ints(&row)));
        ids.insert(row[0].as_i64().unwrap_or(i64::MIN), id);
    }
    Ok((hash, ids))
}

/// Multiset hash of one version, read straight from the CVD.
pub fn version_hash(db: &OrpheusDb, cvd: &str, vid: Vid) -> orpheus_core::Result<u64> {
    let rows = db.cvd(cvd)?.checkout_rows(&[vid])?;
    Ok(rows
        .iter()
        .fold(0u64, |h, (_, r)| h.wrapping_add(row_hash(ints(r)))))
}

/// Apply `edits` to a checked-out staging table through
/// `staging_table_mut`; `ids` maps each key to its row id.
pub fn apply(
    db: &mut OrpheusDb,
    table: &str,
    ids: &HashMap<i64, RowId>,
    edits: &[Edit],
) -> Result<(), String> {
    let id_of = |k: i64| {
        ids.get(&k)
            .copied()
            .ok_or_else(|| format!("key {k} missing from the checkout"))
    };
    let t = db.staging_table_mut(table).map_err(|e| e.to_string())?;
    for e in edits {
        let r = match e {
            Edit::Update(k, v) => t.update(id_of(*k)?, row_of(*k, v)),
            Edit::Insert(k, v) => t.insert(row_of(*k, v)).map(drop),
            Edit::Delete(k) => t.delete(id_of(*k)?),
        };
        r.map_err(|e| e.to_string())?;
    }
    Ok(())
}
