//! The enhanced NIC-driver interrupt handler (paper Figure 5(d)).
//!
//! When the interrupt handler reads an ICR with NCAP bits set, it calls
//! cpufreq APIs:
//!
//! * `IT_HIGH` → raise frequency to the maximum, disable the menu
//!   governor (preventing short C-state dips during the burst) and
//!   suspend the ondemand governor for one invocation period (avoiding
//!   conflicting decisions);
//! * `IT_LOW` → step the frequency down along the FCONS schedule and
//!   re-enable the menu governor on the first step.
//!
//! The driver here is pure decision logic returning a [`DriverAction`];
//! the `oskernel` crate applies it to cores/governors and writes the
//! frequency status back to the NIC.

use crate::config::{NcapConfig, ONDEMAND_SUSPEND};
use crate::icr::IcrFlags;
use cpusim::{PStateId, PStateTable};
use desim::SimDuration;

/// What the interrupt handler asks the kernel to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriverAction {
    /// Target P-state to apply, if any.
    pub set_pstate: Option<PStateId>,
    /// Disable the menu governor (cores stay in C0 between jobs).
    pub disable_menu: bool,
    /// Re-enable the menu governor.
    pub enable_menu: bool,
    /// Suspend the ondemand governor for this long.
    pub suspend_ondemand: Option<SimDuration>,
}

impl DriverAction {
    /// `true` when the action changes nothing.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.set_pstate.is_none()
            && !self.disable_menu
            && !self.enable_menu
            && self.suspend_ondemand.is_none()
    }
}

/// The NCAP-enhanced interrupt handler state.
#[derive(Debug, Clone)]
pub struct EnhancedDriver {
    /// Levels to descend per IT_LOW so FCONS interrupts reach minimum.
    step: u8,
    /// Whether the current descent already re-enabled the menu governor.
    descending: bool,
}

impl EnhancedDriver {
    /// Creates the driver for a given table/config pair.
    #[must_use]
    pub fn new(config: NcapConfig, table: &PStateTable) -> Self {
        let step = table.fcons_step(config.fcons);
        EnhancedDriver {
            step,
            descending: false,
        }
    }

    /// The per-IT_LOW descent step in P-state levels.
    #[must_use]
    pub fn fcons_step(&self) -> u8 {
        self.step
    }

    /// Handles an ICR read, given the P-state the processor is currently
    /// heading to.
    ///
    /// # Example
    ///
    /// ```
    /// use ncap::{EnhancedDriver, NcapConfig, IcrFlags};
    /// use cpusim::PStateTable;
    ///
    /// let table = PStateTable::i7_like();
    /// let mut drv = EnhancedDriver::new(NcapConfig::aggressive(), &table);
    /// let act = drv.handle_interrupt(IcrFlags::IT_HIGH | IcrFlags::IT_RX,
    ///                                table.deepest(), &table);
    /// assert_eq!(act.set_pstate, Some(table.fastest()));
    /// assert!(act.disable_menu);
    /// ```
    pub fn handle_interrupt(
        &mut self,
        icr: IcrFlags,
        current_goal: PStateId,
        table: &PStateTable,
    ) -> DriverAction {
        let mut action = DriverAction::default();
        if icr.contains(IcrFlags::IT_HIGH) {
            self.descending = false;
            if current_goal != table.fastest() {
                action.set_pstate = Some(table.fastest());
            }
            action.disable_menu = true;
            action.suspend_ondemand = Some(ONDEMAND_SUSPEND);
        } else if icr.contains(IcrFlags::IT_LOW) {
            let next = table.step_down(current_goal, self.step);
            if next != current_goal {
                action.set_pstate = Some(next);
            }
            if !self.descending {
                // Paper §4.3: "NCAP enables the menu governor when the
                // first IT_LOW interrupt is posted."
                action.enable_menu = true;
                self.descending = true;
            }
        }
        action
    }

    /// Whether the target P-state is the table maximum/minimum — the
    /// status pair the driver writes back to the NIC after applying.
    #[must_use]
    pub fn freq_status(target: PStateId, table: &PStateTable) -> (bool, bool) {
        (target == table.fastest(), target == table.deepest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(fcons: u8) -> (EnhancedDriver, PStateTable) {
        let table = PStateTable::i7_like();
        let drv = EnhancedDriver::new(NcapConfig::paper_defaults().with_fcons(fcons), &table);
        (drv, table)
    }

    #[test]
    fn it_high_boosts_and_guards() {
        let (mut drv, t) = setup(5);
        let a = drv.handle_interrupt(IcrFlags::IT_HIGH | IcrFlags::IT_RX, PStateId(9), &t);
        assert_eq!(a.set_pstate, Some(t.fastest()));
        assert!(a.disable_menu);
        assert_eq!(a.suspend_ondemand, Some(SimDuration::from_ms(10)));
        assert!(!a.enable_menu);
    }

    #[test]
    fn it_high_at_max_skips_pstate_change() {
        let (mut drv, t) = setup(5);
        let a = drv.handle_interrupt(IcrFlags::IT_HIGH, t.fastest(), &t);
        assert_eq!(a.set_pstate, None);
        assert!(a.disable_menu, "menu guard still applies during bursts");
    }

    #[test]
    fn aggressive_single_it_low_hits_minimum() {
        let (mut drv, t) = setup(1);
        let a = drv.handle_interrupt(IcrFlags::IT_LOW, t.fastest(), &t);
        assert_eq!(a.set_pstate, Some(t.deepest()));
        assert!(a.enable_menu);
    }

    #[test]
    fn conservative_descent_takes_fcons_steps() {
        let (mut drv, t) = setup(5);
        let mut goal = t.fastest();
        let mut steps = 0;
        loop {
            let a = drv.handle_interrupt(IcrFlags::IT_LOW, goal, &t);
            match a.set_pstate {
                Some(p) => {
                    assert!(p > goal, "descent must deepen");
                    goal = p;
                    steps += 1;
                }
                None => break,
            }
            assert!(steps <= 5, "FCONS=5 must reach min within 5 steps");
        }
        assert_eq!(goal, t.deepest());
        assert_eq!(steps, 5);
    }

    #[test]
    fn menu_reenabled_only_on_first_it_low() {
        let (mut drv, t) = setup(5);
        let a1 = drv.handle_interrupt(IcrFlags::IT_LOW, t.fastest(), &t);
        assert!(a1.enable_menu);
        let a2 = drv.handle_interrupt(IcrFlags::IT_LOW, PStateId(3), &t);
        assert!(!a2.enable_menu);
        // A new burst resets the descent; the next IT_LOW re-enables menu.
        drv.handle_interrupt(IcrFlags::IT_HIGH, PStateId(3), &t);
        let a3 = drv.handle_interrupt(IcrFlags::IT_LOW, t.fastest(), &t);
        assert!(a3.enable_menu);
    }

    #[test]
    fn plain_rx_is_noop() {
        let (mut drv, t) = setup(5);
        let a = drv.handle_interrupt(IcrFlags::IT_RX, PStateId(5), &t);
        assert!(a.is_noop());
    }

    #[test]
    fn freq_status_extremes() {
        let t = PStateTable::i7_like();
        assert_eq!(EnhancedDriver::freq_status(t.fastest(), &t), (true, false));
        assert_eq!(EnhancedDriver::freq_status(t.deepest(), &t), (false, true));
        assert_eq!(EnhancedDriver::freq_status(PStateId(7), &t), (false, false));
    }
}
