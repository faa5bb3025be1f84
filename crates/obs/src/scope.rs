//! Run-scoped telemetry: one [`Scope`] per run owns that run's metrics
//! [`Registry`] and phase [`Profiler`].
//!
//! A caller that wants telemetry creates a scope and installs it as the
//! calling thread's current scope ([`Scope::install`]). Every recording
//! site — the simulator, hotspot detection, fitting, the menu, the
//! pipeline stages, `prof::scope` and `prof::count` — records into
//! whatever scope is current on its thread. Fan-outs carry the scope to
//! their workers through [`crate::prof::fork`]/[`crate::prof::ForkCtx::attach`]
//! (wired through `try_run_indexed`), so a run's telemetry is the same
//! at any worker count. With no scope installed there is nothing to
//! record into: the disabled path is one thread-local check.
//!
//! Two runs in one process never see each other's counters or phases,
//! which is what makes a run's snapshot — and the manifest hashed from
//! it — a function of that run's own work.

use std::cell::RefCell;
use std::marker::PhantomData;

use crate::prof::{LocalTree, Profiler};
use crate::registry::Registry;

/// The telemetry of one run: a metrics registry and a phase profiler,
/// each recording or disabled. Cloning shares both.
#[derive(Clone, Default)]
pub struct Scope {
    registry: Registry,
    profiler: Profiler,
}

impl Scope {
    /// A scope whose metrics registry records (`juggler doctor`,
    /// `metrics`, `runs record`); its profiler stays off.
    #[must_use]
    pub fn metrics() -> Self {
        Scope {
            registry: Registry::new(true),
            profiler: Profiler::default(),
        }
    }

    /// A scope whose phase profiler records (`juggler profile`); its
    /// registry stays off.
    #[must_use]
    pub fn profiling() -> Self {
        Scope {
            registry: Registry::default(),
            profiler: Profiler::recording(),
        }
    }

    /// The run's metrics registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The run's phase profiler.
    #[must_use]
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Makes this the calling thread's current scope until the returned
    /// guard drops, which merges the thread's open phase tree into this
    /// scope's profiler and restores the previous scope. Guards nest like
    /// spans.
    pub fn install(&self) -> Installed {
        let fresh = Frame {
            scope: self.clone(),
            tree: LocalTree::default(),
        };
        Installed {
            previous: with_current(|f| std::mem::replace(f, fresh)),
            _thread_bound: PhantomData,
        }
    }
}

/// Guard for an installed [`Scope`]; see [`Scope::install`]. Bound to
/// the thread that installed it.
#[must_use = "a scope is current only until its guard drops"]
pub struct Installed {
    previous: Frame,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let previous = std::mem::take(&mut self.previous);
        let mut ours = with_current(|f| std::mem::replace(f, previous));
        ours.tree.flush(ours.scope.profiler());
    }
}

/// A thread's current scope plus its pre-merge phase tree.
#[derive(Default)]
pub(crate) struct Frame {
    pub(crate) scope: Scope,
    pub(crate) tree: LocalTree,
}

thread_local! {
    static CURRENT: RefCell<Frame> = RefCell::new(Frame::default());
}

/// Runs `f` on the calling thread's current frame.
pub(crate) fn with_current<R>(f: impl FnOnce(&mut Frame) -> R) -> R {
    CURRENT.with(|c| f(&mut c.borrow_mut()))
}

/// The metrics registry of the calling thread's current [`Scope`];
/// disabled when no scope is installed. Recording sites fetch it once
/// and check [`Registry::enabled`] before registering handles.
#[must_use]
pub fn registry() -> Registry {
    with_current(|f| f.scope.registry.clone())
}

/// [`registry`] under the name the end-to-end benchmark (`e2ebench/`)
/// still calls.
#[must_use]
pub fn global() -> Registry {
    registry()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_records_without_an_installed_scope() {
        assert!(!global().enabled());
        assert!(!crate::prof::profiler().enabled());
        let c = registry().counter("unused_total", "never records");
        c.inc();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn install_guards_nest_and_restore() {
        let (outer, inner) = (Scope::metrics(), Scope::metrics());
        {
            let _o = outer.install();
            registry().counter("x_total", "x").inc();
            {
                let _i = inner.install();
                registry().counter("x_total", "x").add(5);
            }
            registry().counter("x_total", "x").inc();
        }
        assert!(!registry().enabled(), "uninstalled");
        assert_eq!(outer.registry().snapshot(false).counter("x_total"), Some(2));
        assert_eq!(inner.registry().snapshot(false).counter("x_total"), Some(5));
    }

    #[test]
    fn forked_workers_record_into_the_spawning_scope() {
        let run = Scope::metrics();
        let _installed = run.install();
        let ctx = crate::prof::fork();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    registry().counter("lost_total", "no scope here").inc();
                    let _attached = ctx.attach();
                    registry().counter("w_total", "worker counter").inc();
                });
            }
        });
        let snap = run.registry().snapshot(false);
        assert_eq!(snap.counter("w_total"), Some(2));
        assert_eq!(snap.counter("lost_total"), None);
    }
}
