//! The Virtual Component, as its head commands it.
//!
//! "A Virtual Component is a composition of inter-connected communicating
//! physical components defined by object transfer relationships" (§1.1).
//! Who belongs to a component and who heads it live in the runtime's role
//! map ([`crate::runtime::VcMap`]); this record holds what only the head
//! decides: the mode it last commanded each controller into, and the
//! object-transfer relationships. The nodes apply those commands when the
//! head's `Reconfig` frames reach them, so a node's own mode can lag this
//! view by a frame.

use std::collections::BTreeMap;

use evm_netsim::NodeId;

use crate::roles::ControllerMode;
use crate::transfers::ObjectTransfer;

/// A Virtual Component's commanded view: controller modes and transfer
/// relationships.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualComponent {
    name: String,
    modes: BTreeMap<NodeId, ControllerMode>,
    transfers: Vec<ObjectTransfer>,
}

impl VirtualComponent {
    /// Creates a component with no controllers.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        VirtualComponent {
            name: name.into(),
            modes: BTreeMap::new(),
            transfers: Vec::new(),
        }
    }

    /// Component name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The component's name, by value: how a run hands it on to its
    /// result without copying it.
    #[must_use]
    pub fn into_name(self) -> String {
        self.name
    }

    /// Records a controller in its deployment mode. Re-adding a
    /// controller overwrites its mode without a transition check.
    pub fn add_controller(&mut self, node: NodeId, mode: ControllerMode) {
        self.modes.insert(node, mode);
    }

    /// The mode last commanded for `node`, if it is a controller here.
    #[must_use]
    pub fn mode(&self, node: NodeId) -> Option<ControllerMode> {
        self.modes.get(&node).copied()
    }

    /// Commands a controller into `mode`.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the node is not a controller of this component or
    /// the transition is illegal per
    /// [`ControllerMode::can_transition_to`]. On error nothing changes.
    pub fn set_mode(&mut self, node: NodeId, mode: ControllerMode) -> Result<(), String> {
        let cur = self
            .modes
            .get_mut(&node)
            .ok_or_else(|| format!("unknown member {node}"))?;
        if !cur.can_transition_to(mode) {
            return Err(format!("illegal transition {cur} -> {mode} on {node}"));
        }
        *cur = mode;
        Ok(())
    }

    /// The controller currently in `Active` mode, if exactly one exists.
    #[must_use]
    pub fn active_controller(&self) -> Option<NodeId> {
        let mut it = self.active();
        match (it.next(), it.next()) {
            (Some(n), None) => Some(n),
            _ => None,
        }
    }

    /// Registers an object-transfer relationship.
    pub fn add_transfer(&mut self, t: ObjectTransfer) {
        self.transfers.push(t);
    }

    /// The relationship list.
    #[must_use]
    pub fn transfers(&self) -> &[ObjectTransfer] {
        &self.transfers
    }

    /// Single-active-controller safety invariant over the commanded view:
    /// the head has at most one controller in `Active`. The engine asserts
    /// it after every event in debug builds.
    #[must_use]
    pub fn invariant_single_active(&self) -> bool {
        self.active().nth(1).is_none()
    }

    fn active(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.modes
            .iter()
            .filter(|&(_, &m)| m == ControllerMode::Active)
            .map(|(&n, _)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_vc() -> VirtualComponent {
        let mut vc = VirtualComponent::new("lts-loop");
        vc.add_controller(NodeId(2), ControllerMode::Active);
        vc.add_controller(NodeId(3), ControllerMode::Backup);
        vc
    }

    #[test]
    fn fig6b_mode_sequence() {
        let mut vc = paper_vc();
        // T2: B promotes, A demotes.
        vc.set_mode(NodeId(3), ControllerMode::Active).unwrap();
        // Transiently both Active — the engine sequences demote first in
        // practice; the invariant check exposes the window:
        assert!(!vc.invariant_single_active());
        vc.set_mode(NodeId(2), ControllerMode::Backup).unwrap();
        assert!(vc.invariant_single_active());
        assert_eq!(vc.active_controller(), Some(NodeId(3)));
        // T3: A -> Dormant.
        vc.set_mode(NodeId(2), ControllerMode::Dormant).unwrap();
        assert_eq!(vc.mode(NodeId(2)), Some(ControllerMode::Dormant));
    }

    #[test]
    fn illegal_transition_rejected() {
        let mut vc = paper_vc();
        vc.set_mode(NodeId(2), ControllerMode::Dormant).unwrap();
        let err = vc.set_mode(NodeId(2), ControllerMode::Indicator);
        assert!(err.is_err());
        assert_eq!(vc.mode(NodeId(2)), Some(ControllerMode::Dormant));
    }

    #[test]
    fn unknown_member_errors() {
        let mut vc = paper_vc();
        assert!(vc.set_mode(NodeId(99), ControllerMode::Active).is_err());
        assert_eq!(vc.mode(NodeId(99)), None);
    }

    #[test]
    fn active_controller_ambiguity_returns_none() {
        let mut vc = paper_vc();
        vc.set_mode(NodeId(3), ControllerMode::Active).unwrap();
        assert_eq!(vc.active_controller(), None, "two actives is not a master");
    }
}
