#include "ncc/policy_parser.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

namespace integrade::ncc {
namespace {

const char* kDayNames[] = {"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"};

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

Status line_error(int line, const std::string& what) {
  return Status(ErrorCode::kInvalidArgument,
                "line " + std::to_string(line) + ": " + what);
}

/// "30%" -> 0.30
Result<double> parse_percent(const std::string& text) {
  std::string t = trim(text);
  if (t.empty() || t.back() != '%') {
    return Status(ErrorCode::kInvalidArgument, "expected a percentage like 30%");
  }
  t.pop_back();
  try {
    const double value = std::stod(t);
    if (value < 0 || value > 100) {
      return Status(ErrorCode::kInvalidArgument, "percentage out of [0,100]");
    }
    return value / 100.0;
  } catch (const std::exception&) {
    return Status(ErrorCode::kInvalidArgument, "bad percentage '" + text + "'");
  }
}

/// "10min" / "30s" / "2h" -> SimDuration
Result<SimDuration> parse_duration(const std::string& text) {
  const std::string t = trim(lower(text));
  std::size_t pos = 0;
  while (pos < t.size() &&
         (std::isdigit(static_cast<unsigned char>(t[pos])) || t[pos] == '.')) {
    ++pos;
  }
  if (pos == 0) {
    return Status(ErrorCode::kInvalidArgument, "bad duration '" + text + "'");
  }
  double value;
  try {
    value = std::stod(t.substr(0, pos));
  } catch (const std::exception&) {
    return Status(ErrorCode::kInvalidArgument, "bad duration '" + text + "'");
  }
  const std::string unit = trim(t.substr(pos));
  double unit_seconds = 0;
  if (unit == "s" || unit == "sec") {
    unit_seconds = 1;
  } else if (unit == "min" || unit == "m") {
    unit_seconds = 60;
  } else if (unit == "h" || unit == "hour") {
    unit_seconds = 3600;
  } else {
    return Status(ErrorCode::kInvalidArgument, "unknown duration unit '" + unit + "'");
  }
  const double seconds = value * unit_seconds;
  if (!(seconds * kSecond < 0x1p63)) {
    return Status(ErrorCode::kInvalidArgument,
                  "duration '" + text + "' does not fit in microseconds");
  }
  return from_seconds(seconds);
}

Result<int> parse_day(const std::string& name) {
  for (int d = 0; d < 7; ++d) {
    if (name == kDayNames[d]) return d;
  }
  return Status(ErrorCode::kInvalidArgument, "unknown day '" + name + "'");
}

/// "09:00" -> slot of day [0, 48]; "24:00" allowed as the exclusive end.
Result<int> parse_slot(const std::string& text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    return Status(ErrorCode::kInvalidArgument, "expected HH:MM in '" + text + "'");
  }
  int hours;
  int minutes;
  try {
    hours = std::stoi(text.substr(0, colon));
    minutes = std::stoi(text.substr(colon + 1));
  } catch (const std::exception&) {
    return Status(ErrorCode::kInvalidArgument, "bad time '" + text + "'");
  }
  if (hours < 0 || hours > 24 || minutes < 0 || minutes >= 60 ||
      (hours == 24 && minutes != 0) || minutes % 30 != 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "time must be HH:00 or HH:30 within 00:00..24:00");
  }
  return hours * 2 + minutes / 30;
}

/// "Mon-Fri 09:00-18:00" or "Sun 22:00-24:00".
Result<std::vector<BlackoutWindow>> parse_blackout(const std::string& text) {
  std::istringstream stream(trim(text));
  std::string days;
  std::string hours;
  stream >> days >> hours;
  if (days.empty() || hours.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "expected '<Days> <HH:MM-HH:MM>' in '" + text + "'");
  }

  int day_from;
  int day_to;
  const std::size_t dash = days.find('-');
  if (dash == std::string::npos) {
    auto day = parse_day(days);
    if (!day.is_ok()) return day.status();
    day_from = day_to = day.value();
  } else {
    auto from = parse_day(days.substr(0, dash));
    auto to = parse_day(days.substr(dash + 1));
    if (!from.is_ok()) return from.status();
    if (!to.is_ok()) return to.status();
    day_from = from.value();
    day_to = to.value();
    if (day_to < day_from) {
      return Status(ErrorCode::kInvalidArgument, "day range runs backwards");
    }
  }

  const std::size_t hdash = hours.find('-');
  if (hdash == std::string::npos) {
    return Status(ErrorCode::kInvalidArgument, "expected HH:MM-HH:MM");
  }
  auto from_slot = parse_slot(hours.substr(0, hdash));
  auto to_slot = parse_slot(hours.substr(hdash + 1));
  if (!from_slot.is_ok()) return from_slot.status();
  if (!to_slot.is_ok()) return to_slot.status();
  if (to_slot.value() <= from_slot.value()) {
    return Status(ErrorCode::kInvalidArgument, "time range runs backwards");
  }

  std::vector<BlackoutWindow> windows;
  for (int day = day_from; day <= day_to; ++day) {
    BlackoutWindow window;
    window.from_slot = day * node::kSlotsPerDay + from_slot.value();
    window.to_slot = day * node::kSlotsPerDay + to_slot.value();
    windows.push_back(window);
  }
  return windows;
}

}  // namespace

Result<SharingPolicy> parse_policy(const std::string& text) {
  SharingPolicy policy;
  std::istringstream stream(text);
  std::string raw_line;
  int line_number = 0;

  while (std::getline(stream, raw_line)) {
    ++line_number;
    std::string line = raw_line;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return line_error(line_number, "expected 'key = value'");
    }
    const std::string key = lower(trim(line.substr(0, eq)));
    const std::string value = trim(line.substr(eq + 1));

    if (key == "sharing") {
      const std::string v = lower(value);
      if (v == "on") {
        policy.sharing_enabled = true;
      } else if (v == "off") {
        policy.sharing_enabled = false;
      } else {
        return line_error(line_number, "sharing must be on|off");
      }
    } else if (key == "mode") {
      const std::string v = lower(value);
      if (v == "strict") {
        policy.require_owner_away = true;
      } else if (v == "partial") {
        policy.require_owner_away = false;
      } else {
        return line_error(line_number, "mode must be strict|partial");
      }
    } else if (key == "cpu_cap") {
      auto fraction = parse_percent(value);
      if (!fraction.is_ok()) return line_error(line_number, fraction.status().message());
      policy.cpu_export_cap = fraction.value();
    } else if (key == "ram_cap") {
      auto fraction = parse_percent(value);
      if (!fraction.is_ok()) return line_error(line_number, fraction.status().message());
      policy.ram_export_cap = fraction.value();
    } else if (key == "idle_threshold") {
      auto fraction = parse_percent(value);
      if (!fraction.is_ok()) return line_error(line_number, fraction.status().message());
      policy.idle_cpu_threshold = fraction.value();
    } else if (key == "grace") {
      auto duration = parse_duration(value);
      if (!duration.is_ok()) return line_error(line_number, duration.status().message());
      policy.idle_grace = duration.value();
    } else if (key == "blackout") {
      auto windows = parse_blackout(value);
      if (!windows.is_ok()) return line_error(line_number, windows.status().message());
      policy.blackouts.insert(policy.blackouts.end(), windows.value().begin(),
                              windows.value().end());
    } else if (key == "bid_filter") {
      // The expression is validated where it is evaluated (the LRM compiles
      // it with services::Constraint::parse and treats a malformed filter
      // as refuse-all); the text is preserved verbatim, case intact.
      if (value.empty()) {
        return line_error(line_number, "bid_filter needs a constraint expression");
      }
      policy.bid_filter = value;
    } else {
      return line_error(line_number, "unknown directive '" + key + "'");
    }
  }
  return policy;
}

std::string format_policy(const SharingPolicy& policy) {
  std::ostringstream out;
  out << "sharing = " << (policy.sharing_enabled ? "on" : "off") << "\n";
  out << "mode = " << (policy.require_owner_away ? "strict" : "partial") << "\n";
  out << "cpu_cap = " << policy.cpu_export_cap * 100 << "%\n";
  out << "ram_cap = " << policy.ram_export_cap * 100 << "%\n";
  out << "idle_threshold = " << policy.idle_cpu_threshold * 100 << "%\n";
  out << "grace = " << to_seconds(policy.idle_grace) << "s\n";
  if (!policy.bid_filter.empty()) {
    out << "bid_filter = " << policy.bid_filter << "\n";
  }
  for (const auto& window : policy.blackouts) {
    const int day = window.from_slot / node::kSlotsPerDay;
    const int from = window.from_slot % node::kSlotsPerDay;
    const int to_day = (window.to_slot - 1) / node::kSlotsPerDay;
    int to = window.to_slot - to_day * node::kSlotsPerDay;
    // Windows produced by parse_policy never wrap; render day by day.
    out << "blackout = " << kDayNames[day];
    if (to_day != day) out << "-" << kDayNames[to_day];
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, " %02d:%02d-%02d:%02d", from / 2,
                  (from % 2) * 30, to / 2, (to % 2) * 30);
    out << buffer << "\n";
  }
  return out.str();
}

}  // namespace integrade::ncc
