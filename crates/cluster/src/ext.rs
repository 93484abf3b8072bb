//! A minimal type-map for layering state into the world.
//!
//! `dvc-core` (and experiment harnesses) keep their coordinator state inside
//! `ClusterWorld` via this map, so event closures — which are typed against
//! `Sim<ClusterWorld>` — can reach it without `dvc-cluster` depending on the
//! layers above it.

use std::any::{Any, TypeId};
use std::collections::HashMap;

/// Heterogeneous, type-keyed storage.
#[derive(Default)]
pub struct Extensions {
    map: HashMap<TypeId, Box<dyn Any>>,
}

impl Extensions {
    pub fn new() -> Self {
        Extensions::default()
    }

    pub fn insert<T: 'static>(&mut self, value: T) -> Option<T> {
        self.map
            .insert(TypeId::of::<T>(), Box::new(value))
            .and_then(|old| old.downcast::<T>().ok())
            .map(|b| *b)
    }

    pub fn get<T: 'static>(&self) -> Option<&T> {
        self.map
            .get(&TypeId::of::<T>())
            .and_then(|b| b.downcast_ref::<T>())
    }

    pub fn get_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.map
            .get_mut(&TypeId::of::<T>())
            .and_then(|b| b.downcast_mut::<T>())
    }

    pub fn get_or_default<T: 'static + Default>(&mut self) -> &mut T {
        self.map
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(T::default()))
            .downcast_mut::<T>()
            .expect("type map invariant")
    }

    pub fn remove<T: 'static>(&mut self) -> Option<T> {
        self.map
            .remove(&TypeId::of::<T>())
            .and_then(|b| b.downcast::<T>().ok())
            .map(|b| *b)
    }

    pub fn contains<T: 'static>(&self) -> bool {
        self.map.contains_key(&TypeId::of::<T>())
    }

    /// How many distinct types are stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default, PartialEq, Debug)]
    struct CoordState {
        arms: u32,
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut e = Extensions::new();
        assert!(e.get::<CoordState>().is_none());
        e.insert(CoordState { arms: 3 });
        assert_eq!(e.get::<CoordState>().unwrap().arms, 3);
        e.get_mut::<CoordState>().unwrap().arms += 1;
        assert_eq!(e.get::<CoordState>().unwrap().arms, 4);
    }

    #[test]
    fn get_or_default_creates() {
        let mut e = Extensions::new();
        e.get_or_default::<CoordState>().arms = 7;
        assert_eq!(e.get::<CoordState>().unwrap().arms, 7);
    }

    #[test]
    fn insert_returns_previous() {
        let mut e = Extensions::new();
        assert!(e.insert(CoordState { arms: 1 }).is_none());
        let old = e.insert(CoordState { arms: 2 }).unwrap();
        assert_eq!(old.arms, 1);
    }

    #[test]
    fn remove_takes_ownership() {
        let mut e = Extensions::new();
        e.insert(CoordState { arms: 5 });
        let taken = e.remove::<CoordState>().unwrap();
        assert_eq!(taken.arms, 5);
        assert!(!e.contains::<CoordState>());
        assert!(e.is_empty());
    }

    #[test]
    fn distinct_types_coexist() {
        let mut e = Extensions::new();
        e.insert(CoordState { arms: 1 });
        e.insert(42u64);
        assert_eq!(e.len(), 2);
        assert_eq!(*e.get::<u64>().unwrap(), 42);
        assert_eq!(e.get::<CoordState>().unwrap().arms, 1);
    }
}
