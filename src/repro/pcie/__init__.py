"""Transaction-level PCIe substrate.

* :mod:`repro.pcie.tlp` -- transaction-layer packets, segmentation,
  completion splitting.
* :mod:`repro.pcie.link` -- Gen1/2/3 link timing (the paper's board is
  Gen2 x2, exported as :data:`PAPER_LINK`).
* :mod:`repro.pcie.config_space` -- type-0 config space, BAR sizing,
  capability chains.
* :mod:`repro.pcie.msi` -- MSI-X capability/table/PBA.
* :mod:`repro.pcie.device` -- endpoint base class with BAR decode and a
  DMA-master API.
* :mod:`repro.pcie.root_complex` -- host side: DMA termination, MSI
  routing, MMIO/config initiation.
* :mod:`repro.pcie.enumeration` -- bus walk producing
  :class:`DiscoveredFunction` for drivers to bind.
"""

from repro.pcie.config_space import (
    CAP_ID_MSI,
    CAP_ID_MSIX,
    CAP_ID_PCIE,
    CAP_ID_POWER_MANAGEMENT,
    CAP_ID_VENDOR_SPECIFIC,
    BarDefinition,
    ConfigSpace,
)
from repro.pcie.device import PcieEndpoint
from repro.pcie.enumeration import (
    BarAllocator,
    DiscoveredBar,
    DiscoveredCapability,
    DiscoveredFunction,
    enumerate_all,
    enumerate_function,
)
from repro.pcie.link import PAPER_LINK, LinkConfig, PcieLink
from repro.pcie.msi import MsixCapability, MsixMessage, MsixTable, is_msi_address
from repro.pcie.root_complex import (
    MMIO_WINDOW_BASE,
    MMIO_WINDOW_SIZE,
    RootComplex,
    RootPort,
)
from repro.pcie.tlp import (
    CompletionStatus,
    Tlp,
    TlpKind,
    TlpTrain,
    completion_error,
    completion_train,
    completion_with_data,
    config_read,
    config_write,
    memory_read,
    memory_write,
    segment_read,
    segment_write,
    split_completion,
    write_train,
)

__all__ = [
    "BarAllocator",
    "BarDefinition",
    "CAP_ID_MSI",
    "CAP_ID_MSIX",
    "CAP_ID_PCIE",
    "CAP_ID_POWER_MANAGEMENT",
    "CAP_ID_VENDOR_SPECIFIC",
    "CompletionStatus",
    "ConfigSpace",
    "DiscoveredBar",
    "DiscoveredCapability",
    "DiscoveredFunction",
    "LinkConfig",
    "MMIO_WINDOW_BASE",
    "MMIO_WINDOW_SIZE",
    "MsixCapability",
    "MsixMessage",
    "MsixTable",
    "PAPER_LINK",
    "PcieEndpoint",
    "PcieLink",
    "RootComplex",
    "RootPort",
    "Tlp",
    "TlpKind",
    "TlpTrain",
    "completion_error",
    "completion_train",
    "completion_with_data",
    "config_read",
    "config_write",
    "enumerate_all",
    "enumerate_function",
    "is_msi_address",
    "memory_read",
    "memory_write",
    "segment_read",
    "segment_write",
    "split_completion",
    "write_train",
]
