//! Offline shim for `rayon`.
//!
//! The build image cannot reach a crates registry, so this crate provides
//! the one parallel-iterator entry point the workspace uses —
//! `slice.par_iter_mut().enumerate().for_each(..)` — implemented with
//! `std::thread::scope` over contiguous chunks. The CPU baseline therefore
//! remains genuinely parallel (one chunk per available core), it just
//! lacks rayon's work stealing; for the regular row-block SpMV workloads
//! benchmarked here static chunking is an adequate stand-in.

/// Parallel iterator over mutable slice elements.
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

/// Enumerated variant carrying the global index of each element.
pub struct ParEnumerateMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    pub fn enumerate(self) -> ParEnumerateMut<'a, T> {
        ParEnumerateMut { slice: self.slice }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        ParEnumerateMut { slice: self.slice }.for_each(|(_, v)| f(v));
    }
}

impl<'a, T: Send> ParEnumerateMut<'a, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut T)) + Sync,
    {
        let n = self.slice.len();
        if n == 0 {
            return;
        }
        let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(n);
        if threads <= 1 {
            for (i, v) in self.slice.iter_mut().enumerate() {
                f((i, v));
            }
            return;
        }
        let chunk = n.div_ceil(threads);
        let f = &f;
        std::thread::scope(|s| {
            for (c, part) in self.slice.chunks_mut(chunk).enumerate() {
                s.spawn(move || {
                    let base = c * chunk;
                    for (i, v) in part.iter_mut().enumerate() {
                        f((base + i, v));
                    }
                });
            }
        });
    }
}

/// Extension trait mirroring `rayon::prelude::IntoParallelRefMutIterator`
/// for slices and vectors.
pub trait IntoParIterMut {
    type Item;
    fn par_iter_mut(&mut self) -> ParIterMut<'_, Self::Item>;
}

impl<T: Send> IntoParIterMut for [T] {
    type Item = T;
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self }
    }
}

impl<T: Send> IntoParIterMut for Vec<T> {
    type Item = T;
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self }
    }
}

pub mod prelude {
    pub use super::IntoParIterMut;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn parallel_for_each_visits_every_index_once() {
        let mut v = vec![0usize; 10_000];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * 3);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * 3);
        }
    }

    #[test]
    fn empty_slice_ok() {
        let mut v: Vec<u8> = Vec::new();
        v.par_iter_mut().enumerate().for_each(|(_, _)| unreachable!());
    }

    #[test]
    fn plain_for_each_works() {
        let mut v = vec![1i64; 257];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 2));
    }
}
