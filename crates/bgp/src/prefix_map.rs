//! Per-prefix tables as sorted small vectors.
//!
//! A campaign routes a handful of prefixes (at most seven in the paper's
//! set-ups), so a router's per-prefix state and each session's MRAI slots
//! are vectors of `(prefix, value)` pairs kept sorted by prefix. Lookups
//! search a few contiguous entries instead of chasing tree nodes, and
//! iteration order is prefix order, exactly as an ordered map would give.

use crate::prefix::Prefix;

/// A map from [`Prefix`] to `V`, sorted by prefix.
#[derive(Clone, Debug)]
pub struct PrefixMap<V> {
    entries: Vec<(Prefix, V)>,
}

impl<V> Default for PrefixMap<V> {
    fn default() -> Self {
        PrefixMap {
            entries: Vec::new(),
        }
    }
}

impl<V> PrefixMap<V> {
    fn find(&self, prefix: Prefix) -> Result<usize, usize> {
        self.entries.binary_search_by(|(p, _)| p.cmp(&prefix))
    }

    /// The value for `prefix`, if present.
    pub fn get(&self, prefix: Prefix) -> Option<&V> {
        self.find(prefix).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value for `prefix`, if present.
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut V> {
        self.find(prefix).ok().map(|i| &mut self.entries[i].1)
    }

    /// The value for `prefix`, inserting `V::default()` first if absent.
    pub fn entry(&mut self, prefix: Prefix) -> &mut V
    where
        V: Default,
    {
        let i = match self.find(prefix) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (prefix, V::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// All entries in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> {
        self.entries.iter().map(|(p, v)| (*p, v))
    }

    /// All entries in prefix order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Prefix, &mut V)> {
        self.entries.iter_mut().map(|(p, v)| (*p, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_in_prefix_order_whatever_the_insertion_order() {
        let mut m = PrefixMap::default();
        for i in [5u32, 1, 3, 0, 4] {
            *m.entry(Prefix::experiment_slot(i)) = i;
        }
        let got: Vec<u32> = m.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, vec![0, 1, 3, 4, 5]);
        for (_, v) in m.iter_mut() {
            *v *= 10;
        }
        assert_eq!(m.get(Prefix::experiment_slot(3)), Some(&30));
    }

    #[test]
    fn entry_creates_a_default_once() {
        let mut m: PrefixMap<u32> = PrefixMap::default();
        let p = Prefix::experiment_slot(7);
        *m.entry(p) += 3;
        *m.entry(p) += 4;
        assert_eq!(m.get(p), Some(&7));
        assert_eq!(m.iter().count(), 1);
        assert_eq!(m.get_mut(Prefix::experiment_slot(8)), None);
    }
}
