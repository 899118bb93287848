"""Abelian group extensions via Young-diagram products.

The package decides when a finite abelian group is an extension of one
group by another (a positive Littlewood-Richardson coefficient per prime),
enumerates all such extensions, matches groups against parameterized
classification families, and verifies the family closure claims at bounded
order.  `ext --check` and the tests cross-check the criterion against an
independent element-level oracle; the claims' sweeps do not call it.
"""

from .errors import ResourceLimitError
from .extensions import (DEFAULT_ORACLE_BOUND, brute_force_is_extension,
                         extension_set, is_extension, set_extension,
                         set_product)
from .families import (BUILTIN_FAMILIES, Family, FamilyPattern, Slot,
                       enumerate_family, family_contains, family_product,
                       get_family, instantiate_pattern, matches)
from .groups import (AbelianGroup, GroupSet, GroupSyntaxError, TRIVIAL,
                     format_group, parse_group)
from .lr import lr_coefficient, lr_expand, lr_positive, lr_support
from .partitions import (Partition, componentwise_sum, conjugate, contains,
                         format_partition, make_partition, parse_partition,
                         size, union_merge)
from .verify import CLAIMS, VerificationReport, regression_expansions

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "BUILTIN_FAMILIES", "CLAIMS", "DEFAULT_ORACLE_BOUND",
    "Family", "FamilyPattern", "GroupSet", "GroupSyntaxError", "Partition",
    "ResourceLimitError", "Slot", "TRIVIAL", "VerificationReport",
    "brute_force_is_extension", "componentwise_sum", "conjugate", "contains",
    "enumerate_family", "extension_set", "family_contains", "family_product",
    "format_group", "format_partition", "get_family", "instantiate_pattern",
    "is_extension", "lr_coefficient", "lr_expand", "lr_positive",
    "lr_support", "make_partition", "matches", "parse_group", "parse_partition",
    "regression_expansions", "set_extension", "set_product", "size",
    "union_merge",
]
