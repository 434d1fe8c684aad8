//! Scoped fork-join: the one way the workspace runs work on more than one
//! thread (the index build's phases).

use std::panic::resume_unwind;
use std::sync::{Mutex, PoisonError};

/// Run `f` on every item of `items` on up to `threads` threads (the
/// calling thread is one of them) and return the results in item order.
///
/// Items are claimed one at a time from a shared cursor (the enumerated
/// iterator, behind a lock held only to take the next item), so unequal
/// tasks balance themselves, and because the cursor hands out the items
/// themselves a task can own its item or hold it by `&mut` (pass
/// `slice.iter_mut()`). At width 1, or for at most one item, every task
/// runs on the calling thread and no thread is spawned. A panicking task
/// re-raises its panic in the caller once every thread has stopped.
pub fn fork_join<I, T, F>(threads: usize, items: I, f: F) -> Vec<T>
where
    I: IntoIterator,
    I::IntoIter: Send,
    I::Item: Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    let items = items.into_iter();
    let width = threads.min(items.size_hint().1.unwrap_or(usize::MAX));
    if width <= 1 {
        return items.map(f).collect();
    }
    let cursor = Mutex::new(items.enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            let next = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else { break done };
            done.push((i, f(item)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..width).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_every_width() {
        for width in [1, 2, 4] {
            let got = fork_join(width, 0..37usize, |i| {
                // Uneven task costs, so claims interleave across threads.
                std::thread::sleep(std::time::Duration::from_micros((i % 5) as u64 * 50));
                i * i
            });
            let want: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "width {width}");
        }
    }

    #[test]
    fn tasks_may_hold_their_item_by_mut() {
        let mut parts: Vec<Vec<u32>> = (0..9).map(|i| vec![i; i as usize]).collect();
        let lens = fork_join(3, parts.iter_mut(), |part| {
            part.iter_mut().for_each(|x| *x += 1);
            part.len()
        });
        assert_eq!(lens, (0..9).collect::<Vec<usize>>());
        assert!((parts.iter().enumerate()).all(|(i, p)| p.iter().all(|&x| x == i as u32 + 1)));
    }

    #[test]
    fn width_one_runs_every_task_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = fork_join(1, 0..16, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        // One item never spawns either, whatever the width.
        let ids = fork_join(4, [()], |_| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn a_panicking_task_reaches_the_caller() {
        for width in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                fork_join(width, 0..20, |i| {
                    if i == 13 {
                        panic!("task 13 failed");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the panic propagates");
            let msg = payload.downcast_ref::<&str>().copied();
            assert_eq!(msg, Some("task 13 failed"), "width {width}");
        }
    }
}
