#include "ppd/resil/quarantine.hpp"

#include <algorithm>
#include <ostream>

#include "ppd/util/json.hpp"

namespace ppd::resil {

bool QuarantineReport::contains(std::size_t item) const {
  // Entries are sorted by item index.
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), item,
      [](const QuarantineEntry& e, std::size_t i) { return e.item < i; });
  return it != entries.end() && it->item == item;
}

void QuarantineReport::write_json(std::ostream& os) const {
  os << "{\n  \"items\": " << items << ",\n  \"quarantined\": " << entries.size()
     << ",\n  \"entries\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const QuarantineEntry& e = entries[i];
    os << (i == 0 ? "\n" : ",\n")
       << "    {\"item\": " << e.item << ", \"seed\": " << e.seed
       << ", \"rung\": " << util::json::quote(e.rung)
       << ", \"error\": " << util::json::quote(e.error) << "}";
  }
  os << (entries.empty() ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace ppd::resil
