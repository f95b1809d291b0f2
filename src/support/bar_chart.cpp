#include "support/bar_chart.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace pdc {

BarChart::BarChart(std::vector<std::string> categories)
    : categories_(std::move(categories)) {
  if (categories_.empty()) {
    throw InvalidArgument("BarChart requires at least one category");
  }
}

void BarChart::add_series(BarSeries series) {
  if (series.values.size() != categories_.size()) {
    throw InvalidArgument("BarChart::add_series: series '" + series.name +
                          "' has " + std::to_string(series.values.size()) +
                          " values for " + std::to_string(categories_.size()) +
                          " categories");
  }
  series_.push_back(std::move(series));
}

void BarChart::set_title(std::string title) { title_ = std::move(title); }

void BarChart::set_max_bar_width(std::size_t width) {
  if (width == 0) throw InvalidArgument("BarChart bar width must be positive");
  max_bar_width_ = width;
}

std::string BarChart::render() const {
  double max_value = 0.0;
  for (const auto& s : series_) {
    for (double v : s.values) max_value = std::max(max_value, v);
  }
  if (max_value <= 0.0) max_value = 1.0;

  std::size_t label_width = 0;
  for (const auto& c : categories_) label_width = std::max(label_width, c.size());
  std::size_t name_width = 0;
  for (const auto& s : series_) name_width = std::max(name_width, s.name.size());

  // Each series gets a distinct fill character, cycling if there are many.
  static constexpr char kFills[] = {'#', '=', '*', '+', 'o', '%'};

  std::string out;
  if (!title_.empty()) out += title_ + "\n";
  for (std::size_t c = 0; c < categories_.size(); ++c) {
    for (std::size_t s = 0; s < series_.size(); ++s) {
      const double v = series_[s].values[c];
      const auto bar_len = static_cast<std::size_t>(
          std::lround(v / max_value * static_cast<double>(max_bar_width_)));
      out += strings::pad_right(s == 0 ? categories_[c] : "", label_width);
      out += " | ";
      out += strings::pad_right(series_[s].name, name_width);
      out += " ";
      out += std::string(bar_len, kFills[s % sizeof(kFills)]);
      out += ' ' + strings::fixed(v, v == std::floor(v) ? 0 : 2);
      out += "\n";
    }
    if (series_.size() > 1 && c + 1 < categories_.size()) out += "\n";
  }
  return out;
}

}  // namespace pdc
